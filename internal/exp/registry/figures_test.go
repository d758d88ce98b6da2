package registry_test

import (
	"fmt"
	"strings"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/sim"
	"icfp/internal/spec"
)

// shapeParams sizes the figure-shape checks: long enough for the paper's
// qualitative effects to show, short enough for a unit test.
func shapeParams(n int) registry.Params {
	cfg := sim.DefaultConfig()
	cfg.WarmupInsts = 30_000
	return registry.Params{Cfg: cfg, N: n}
}

// describeJobs returns the named experiment's suite jobs, keyed by name.
func describeJobs(t *testing.T, name string, p registry.Params) map[string]spec.Job {
	t.Helper()
	s, err := registry.Describe(name, p)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(map[string]spec.Job, len(s.Jobs))
	for _, j := range s.Jobs {
		jobs[j.Name] = j
	}
	return jobs
}

// runJobs simulates the named jobs of a described suite on one cache.
func runJobs(t *testing.T, all map[string]spec.Job, names []string, opts ...exp.Option) *exp.ResultSet {
	t.Helper()
	jobs := make([]exp.Job, 0, len(names))
	for _, n := range names {
		j, ok := all[n]
		if !ok {
			t.Fatalf("suite has no job %q", n)
		}
		jobs = append(jobs, exp.Job{Name: j.Name, Machine: j.Machine, Workload: j.Workload})
	}
	rs, err := exp.Run(jobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestFig5SpeedupShape: iCFP speeds up the streaming swim by 5%+ over
// in-order, and its geomean over swim and mesa is positive.
func TestFig5SpeedupShape(t *testing.T) {
	jobs := describeJobs(t, "fig5", shapeParams(100_000))
	names := []string{"fig5/swim/base", "fig5/swim/iCFP", "fig5/mesa/base", "fig5/mesa/iCFP"}
	rs := runJobs(t, jobs, names)
	if sp := rs.Speedup("fig5/swim/iCFP", "fig5/swim/base"); sp < 5 {
		t.Errorf("swim iCFP speedup = %.1f%%, want 5%%+", sp)
	}
	geo := rs.GeoMeanSpeedup([][2]string{{"fig5/swim/iCFP", "fig5/swim/base"}, {"fig5/mesa/iCFP", "fig5/mesa/base"}})
	if geo <= 0 {
		t.Errorf("geomean = %.1f%%", geo)
	}
}

// TestFig7BuildOrder: the feature build starts at SLTP and adds iCFP
// features one bar at a time, and on the dependent-miss mcf the full
// build beats the first (blocking-rally) iCFP bar.
func TestFig7BuildOrder(t *testing.T) {
	jobs := describeJobs(t, "fig7", shapeParams(150_000))
	if m := jobs["fig7/mcf/bar1"].Machine.Model; m != spec.ModelSLTP {
		t.Fatalf("bar1 is %q, want the SLTP machine", m)
	}
	features := func(m spec.Machine) int {
		n := 0
		if o := m.Overrides; o != nil {
			if o.NonBlockingRally != nil && *o.NonBlockingRally {
				n++
			}
			if o.MultithreadRally != nil && *o.MultithreadRally {
				n++
			}
			if o.PoisonBits != nil && *o.PoisonBits > 1 {
				n++
			}
		}
		return n
	}
	for bar := 2; bar <= 5; bar++ {
		m := jobs[fmt.Sprintf("fig7/mcf/bar%d", bar)].Machine
		if m.Model != spec.ModelICFP || features(m) != bar-2 {
			t.Errorf("bar%d = %s with %d features, want iCFP with %d", bar, m.Model, features(m), bar-2)
		}
	}
	if _, ok := jobs["fig7/mcf/bar6"]; ok {
		t.Error("the feature build has more than five bars")
	}
	rs := runJobs(t, jobs, []string{"fig7/mcf/bar2", "fig7/mcf/bar5"})
	first, last := rs.MustGet("fig7/mcf/bar2").Cycles, rs.MustGet("fig7/mcf/bar5").Cycles
	if last >= first {
		t.Errorf("full iCFP (%d cycles) must beat the blocking-rally build (%d)", last, first)
	}
}

// TestFig8DesignsComplete: every Figure 8 benchmark compares the three
// store-buffer designs against its in-order baseline.
func TestFig8DesignsComplete(t *testing.T) {
	s, err := registry.Describe("fig8", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	perBench := map[string]map[string]bool{}
	for _, j := range s.Jobs {
		parts := strings.SplitN(j.Name, "/", 3)
		if perBench[parts[1]] == nil {
			perBench[parts[1]] = map[string]bool{}
		}
		perBench[parts[1]][j.Machine.StoreBuffer] = true
	}
	for bench, sbs := range perBench {
		// The baseline names no store buffer; the designs name theirs.
		for _, sb := range []string{"", spec.SBLimited, spec.SBChained, spec.SBIdeal} {
			if !sbs[sb] || len(sbs) != 4 {
				t.Errorf("%s: store-buffer designs %v, want baseline + limited, chained, ideal", bench, sbs)
				break
			}
		}
	}
}
