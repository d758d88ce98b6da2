package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"syscall"
	"time"

	"icfp/internal/exp"
)

// report collects a run's metrics and prints each as it is set, by name
// and unit, ahead of the final JSON line.
type report struct {
	w      io.Writer
	e2e    map[string]metric
	layers map[string]metric
}

func newReport(w io.Writer) *report {
	return &report{w: w, e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) notef(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

// endToEnd records an end-to-end metric.
func (r *report) endToEnd(name, unit string, v float64) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-34s %14.6g %s\n", name, v, unit)
}

// layer records a per-layer metric.
func (r *report) layer(name, unit string, v float64) {
	r.layers[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-34s %14.6g %s\n", name, v, unit)
}

// metrics returns the set the JSON line carries: per-layer metrics for a
// traced run, end-to-end metrics otherwise.
func (r *report) metrics(traced bool) map[string]metric {
	if traced {
		return r.layers
	}
	return r.e2e
}

// timing records the median of samples as an end-to-end metric and notes
// the highest percentile that has at least ten samples beyond it.
func (r *report) timing(name, unit string, samples []float64) {
	r.endToEnd(name, unit, median(samples))
	tailNote := "too few samples for a tail percentile"
	if q, v, ok := tail(samples); ok {
		tailNote = fmt.Sprintf("p%.1f %.6g, 10 samples beyond", q, v)
	}
	r.notef("  %s: n=%d  p50 %.6g  min %.6g  max %.6g %s (%s)", name, len(samples), median(samples),
		slices.Min(samples), slices.Max(samples), unit, tailNote)
}

// checks counts correctness checks. A known defect is an expected,
// documented failure of the program: it is counted and printed, not
// hidden, and not scored as a wrong output.
type checks struct {
	rep                      *report
	attempted, failed, known int
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.rep.notef("CHECK FAILED: "+format, args...)
	}
}

func (c *checks) knownDefect(format string, args ...any) {
	c.attempted++
	c.known++
	if c.known == 1 {
		c.rep.notef("known defect: "+format, args...)
	}
}

func (c *checks) share(n int) float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(n) / float64(c.attempted)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, and its value.
func tail(xs []float64) (q, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	return 100 * float64(i+1) / float64(n), s[i], true
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allFinite reports whether every float field of every result is finite.
func allFinite(rs []exp.Result) bool {
	for _, r := range rs {
		v := reflect.ValueOf(r.R)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
				return false
			}
		}
	}
	return true
}
