// Command benchgate is the performance-regression gate: it runs the
// BenchmarkSimRate suite, parses the per-model measurements (simulated
// Minst/s, B/op and allocs/op), writes them as a perf-trajectory JSON
// file, and fails when sim rates or allocation counts regressed more
// than -max-regress relative to the committed baseline (BENCH_PR6.json,
// or another file of the same format via -baseline).
//
//	go run ./cmd/benchgate                 # gate against BENCH_PR6.json
//	go run ./cmd/benchgate -update         # rewrite the baseline in place
//	go run ./cmd/benchgate -out art.json   # also export the run as an artifact
//
// Machines differ in absolute speed, so two gates apply:
//
//   - relative: every model's rate normalized by the same run's in-order
//     rate, compared against the baseline's normalized rates. This is
//     hardware-independent and always enforced — it catches any change
//     that slows one machine's machinery relative to the others.
//   - absolute: per-model Minst/s against the baseline, enforced only
//     when the run's CPU (go test's "cpu:" line) matches the baseline's,
//     since absolute rates on different hardware are incomparable. This
//     catches uniform slowdowns (e.g. a pessimized shared hierarchy)
//     that normalization hides.
//
// allocs/op is deterministic and hardware-independent, so it is gated
// directly per model with the same -max-regress threshold.
//
// The run also includes BenchmarkSampledRate, whose "errpct" metric is
// each model's CPI error under interval sampling versus the full run of
// the same trace. Simulation and window placement are deterministic, so
// the error is a stable per-model number: it lands in the trajectory's
// "sampled" section as sampled_error and is gated like a perf number —
// an accuracy regression beyond -max-regress (plus a small absolute
// floor for near-zero baselines) fails CI. Baselines without a sampled
// section (pre-sampling trajectories) skip this gate.
//
// Every baseline model must appear in the run; a model the benchmark no
// longer reports fails the gate rather than silently going ungated.
// Refresh the baseline with -update after intentional perf changes or a
// CI runner-class change.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Measurement is one model's benchmark result.
type Measurement struct {
	Model      string  `json:"model"`
	MinstPerS  float64 `json:"minst_per_s"`
	BPerOp     int64   `json:"b_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	NsPerOp    float64 `json:"ns_per_op"`
	Iterations int64   `json:"iterations"`
}

// SampledMeasurement is one model's sampled-mode result: the effective
// covered-trace rate (informational) and the deterministic CPI error of
// the sampled estimate versus the full run, in percent (gated).
type SampledMeasurement struct {
	Model        string  `json:"model"`
	MinstPerS    float64 `json:"minst_per_s"`
	SampledError float64 `json:"sampled_error"`
}

// Trajectory is the on-disk layout of the perf-trajectory file. History
// carries headline wall-clock numbers of past optimization PRs so the
// trend survives baseline refreshes; Benchmarks is the gated baseline;
// CPU records the hardware the rates were measured on (absolute rates
// are only compared between identical CPU strings).
type Trajectory struct {
	Note       string               `json:"note,omitempty"`
	History    map[string]string    `json:"history,omitempty"`
	CPU        string               `json:"cpu,omitempty"`
	Benchmarks []Measurement        `json:"benchmarks"`
	Sampled    []SampledMeasurement `json:"sampled,omitempty"`
}

var (
	flagBaseline = flag.String("baseline", "BENCH_PR6.json", "committed baseline trajectory file")
	flagOut      = flag.String("out", "", "also write this run's trajectory to FILE (CI artifact)")
	flagUpdate   = flag.Bool("update", false, "rewrite the baseline file from this run instead of gating")
	flagMaxReg   = flag.Float64("max-regress", 0.20, "maximum tolerated fractional sim-rate or allocs/op regression")
	flagBench    = flag.String("bench", "^(BenchmarkSimRate|BenchmarkSampledRate)$", "benchmark pattern to run")
	flagTime     = flag.String("benchtime", "", "forwarded to go test -benchtime (baseline refreshes want 3s+)")
)

// benchLine matches one "go test -bench -benchmem" result row with the
// custom Minst/s metric, e.g.:
//
//	BenchmarkSimRate/in-order-4  147  7601456 ns/op  19.74 Minst/s  570992 B/op  114 allocs/op
var benchLine = regexp.MustCompile(
	`^BenchmarkSimRate/(\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op\s+([\d.]+) Minst/s\s+(\d+) B/op\s+(\d+) allocs/op`)

// sampledLine matches one BenchmarkSampledRate row, which carries the
// additional deterministic "errpct" accuracy metric, e.g.:
//
//	BenchmarkSampledRate/iCFP-4  36  33426680 ns/op  91.25 Minst/s  1.113 errpct  4460280 B/op  1259 allocs/op
var sampledLine = regexp.MustCompile(
	`^BenchmarkSampledRate/(\S+?)(?:-\d+)?\s+\d+\s+[\d.]+ ns/op\s+([\d.eE+-]+) Minst/s\s+([\d.eE+-]+) errpct`)

func run() error {
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *flagBench, "-benchmem"}
	if *flagTime != "" {
		args = append(args, "-benchtime", *flagTime)
	}
	cmd := exec.Command("go", append(args, ".")...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	fmt.Fprintln(os.Stderr, "benchgate: running", cmd.String())
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchmark run failed: %w", err)
	}

	var ms []Measurement
	var sms []SampledMeasurement
	var cpu string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if c, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if s := sampledLine.FindStringSubmatch(sc.Text()); s != nil {
			rate, _ := strconv.ParseFloat(s[2], 64)
			errPct, _ := strconv.ParseFloat(s[3], 64)
			sms = append(sms, SampledMeasurement{Model: s[1], MinstPerS: rate, SampledError: errPct})
			continue
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		rate, _ := strconv.ParseFloat(m[4], 64)
		bop, _ := strconv.ParseInt(m[5], 10, 64)
		aop, _ := strconv.ParseInt(m[6], 10, 64)
		ms = append(ms, Measurement{
			Model: m[1], MinstPerS: rate, BPerOp: bop, AllocsOp: aop,
			NsPerOp: ns, Iterations: iters,
		})
	}
	if len(ms) == 0 {
		return fmt.Errorf("no BenchmarkSimRate results parsed from benchmark output:\n%s", out.String())
	}
	for _, m := range ms {
		fmt.Printf("benchgate: %-10s %8.2f Minst/s  %10d B/op  %7d allocs/op\n",
			m.Model, m.MinstPerS, m.BPerOp, m.AllocsOp)
	}
	for _, s := range sms {
		fmt.Printf("benchgate: %-10s %8.2f Minst/s  sampled CPI error %.3f%%\n",
			s.Model+" (s)", s.MinstPerS, s.SampledError)
	}

	base, err := readTrajectory(*flagBaseline)
	if os.IsNotExist(err) && !*flagUpdate {
		return fmt.Errorf("baseline %s missing; run with -update to create it", *flagBaseline)
	}
	if err != nil && !os.IsNotExist(err) {
		return err
	}

	cur := Trajectory{CPU: cpu, Benchmarks: ms, Sampled: sms}
	if base != nil {
		cur.Note, cur.History = base.Note, base.History
	}
	if *flagOut != "" {
		if err := writeTrajectory(*flagOut, cur); err != nil {
			return err
		}
	}
	if *flagUpdate {
		if err := writeTrajectory(*flagBaseline, cur); err != nil {
			return err
		}
		fmt.Println("benchgate: baseline", *flagBaseline, "updated")
		return nil
	}

	baseline := make(map[string]Measurement, len(base.Benchmarks))
	for _, m := range base.Benchmarks {
		baseline[m.Model] = m
	}
	current := make(map[string]Measurement, len(ms))
	for _, m := range ms {
		current[m.Model] = m
	}

	failed := false
	// Every baseline model must appear in the run: a model the benchmark
	// stopped reporting (regex drift, rename) must not go silently ungated.
	for _, b := range base.Benchmarks {
		if _, ok := current[b.Model]; !ok {
			failed = true
			fmt.Printf("benchgate: FAIL %-10s in baseline but missing from the run (renamed? parse drift?)\n", b.Model)
		}
	}
	for _, m := range ms {
		if _, ok := baseline[m.Model]; !ok {
			fmt.Printf("benchgate: %-10s no baseline entry (new model?); skipping\n", m.Model)
		}
	}

	// Relative gate (hardware-independent): rates normalized by the same
	// run's in-order rate.
	const ref = "in-order"
	curRef, baseRef := current[ref], baseline[ref]
	if curRef.MinstPerS > 0 && baseRef.MinstPerS > 0 {
		for _, m := range ms {
			b, ok := baseline[m.Model]
			if !ok || m.Model == ref {
				continue
			}
			curRatio := m.MinstPerS / curRef.MinstPerS
			baseRatio := b.MinstPerS / baseRef.MinstPerS
			if curRatio < baseRatio*(1-*flagMaxReg) {
				failed = true
				fmt.Printf("benchgate: FAIL %-10s %.3fx of in-order < baseline %.3fx (-%.0f%% allowed)\n",
					m.Model, curRatio, baseRatio, *flagMaxReg*100)
			}
		}
	} else {
		failed = true
		fmt.Printf("benchgate: FAIL no %q rate in run or baseline; relative gate impossible\n", ref)
	}

	// Absolute gate: only meaningful on the baseline's hardware.
	if cpu != "" && cpu == base.CPU {
		for _, m := range ms {
			b, ok := baseline[m.Model]
			if !ok {
				continue
			}
			limit := b.MinstPerS * (1 - *flagMaxReg)
			if m.MinstPerS < limit {
				failed = true
				fmt.Printf("benchgate: FAIL %-10s %.2f Minst/s < %.2f (baseline %.2f, -%.0f%% allowed)\n",
					m.Model, m.MinstPerS, limit, b.MinstPerS, *flagMaxReg*100)
			}
		}
	} else {
		fmt.Printf("benchgate: absolute gate skipped (run cpu %q, baseline cpu %q); relative gate applied\n", cpu, base.CPU)
	}

	// Allocation gate: allocs/op does not depend on the runner's speed,
	// so every model is gated directly against its baseline count.
	for _, m := range ms {
		b, ok := baseline[m.Model]
		if !ok {
			continue
		}
		limit := float64(b.AllocsOp) * (1 + *flagMaxReg)
		if float64(m.AllocsOp) > limit {
			failed = true
			fmt.Printf("benchgate: FAIL %-10s %d allocs/op > %.0f (baseline %d, +%.0f%% allowed)\n",
				m.Model, m.AllocsOp, limit, b.AllocsOp, *flagMaxReg*100)
		}
	}

	// Sampled-accuracy gate: the CPI error of the sampled path is
	// deterministic (seeded placement, deterministic simulation), so a
	// grown error is a real accuracy regression, not noise. The small
	// absolute floor keeps a near-zero baseline from failing on harmless
	// last-digit movement. Baselines predating sampling carry no entries
	// and skip the gate.
	curSampled := make(map[string]SampledMeasurement, len(sms))
	for _, s := range sms {
		curSampled[s.Model] = s
	}
	for _, b := range base.Sampled {
		s, ok := curSampled[b.Model]
		if !ok {
			failed = true
			fmt.Printf("benchgate: FAIL %-10s sampled baseline present but missing from the run\n", b.Model)
			continue
		}
		limit := b.SampledError*(1+*flagMaxReg) + 0.05
		if s.SampledError > limit {
			failed = true
			fmt.Printf("benchgate: FAIL %-10s sampled CPI error %.3f%% > %.3f%% (baseline %.3f%%, +%.0f%% allowed)\n",
				b.Model, s.SampledError, limit, b.SampledError, *flagMaxReg*100)
		}
	}

	if failed {
		return fmt.Errorf("sim-rate, allocs/op, or sampled-accuracy regression beyond %.0f%%; if intentional, refresh the baseline with -update", *flagMaxReg*100)
	}
	fmt.Println("benchgate: ok (no sim-rate, allocs/op, or sampled-accuracy regression beyond the threshold)")
	return nil
}

func readTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &t, nil
}

func writeTrajectory(path string, t Trajectory) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
