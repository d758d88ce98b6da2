package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/sim"
)

// sweepLats are the two L2 hit latencies both sweep checks use.
var sweepLats = []int{10, 50}

// runSweep simulates the registry's Figure 6 equake points for the named
// machines (plus the in-order baseline) at sweepLats on one cache, and
// returns the results with how often each memoization key simulated.
func runSweep(t *testing.T, machines ...string) (*exp.ResultSet, map[exp.Key]int) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.WarmupInsts = 30_000
	s, err := registry.Describe("fig6", registry.Params{Cfg: cfg, N: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, lat := range sweepLats {
		for _, m := range append([]string{"base"}, machines...) {
			want[fmt.Sprintf("fig6/equake/%s/%d", m, lat)] = true
		}
	}
	var jobs []exp.Job
	for _, j := range s.Jobs {
		if want[j.Name] {
			jobs = append(jobs, exp.Job{Name: j.Name, Machine: j.Machine, Workload: j.Workload})
		}
	}
	if len(jobs) != len(want) {
		t.Fatalf("fig6 suite has %d of the %d sweep points", len(jobs), len(want))
	}
	counts := map[exp.Key]int{}
	rs, err := exp.Run(jobs, exp.OnRun(func(k exp.Key) { counts[k]++ }))
	if err != nil {
		t.Fatal(err)
	}
	return rs, counts
}

// TestSweepL2LatencyShape: at higher L2 hit latencies iCFP-all's
// advantage on equake grows (Figure 6).
func TestSweepL2LatencyShape(t *testing.T) {
	rs, _ := runSweep(t, "iCFP-all")
	lo := rs.Speedup("fig6/equake/iCFP-all/10", "fig6/equake/base/10")
	hi := rs.Speedup("fig6/equake/iCFP-all/50", "fig6/equake/base/50")
	if hi <= lo {
		t.Errorf("iCFP-all gain must grow with L2 latency: %.1f%% -> %.1f%%", lo, hi)
	}
}

// TestSweepSharedBaselineRunsOnce: sweeping several machines on one
// cache simulates the in-order baseline once per latency configuration,
// not once per (machine, latency) point.
func TestSweepSharedBaselineRunsOnce(t *testing.T) {
	sweep := []string{"RA-L2", "iCFP-all"}
	_, counts := runSweep(t, sweep...)
	baselines := 0
	for k, n := range counts {
		if n != 1 {
			t.Errorf("key %v simulated %d times, want 1", k, n)
		}
		if strings.Contains(k.Machine, `"model":"in-order"`) {
			baselines++
		}
	}
	if baselines != len(sweepLats) {
		t.Errorf("in-order baseline simulated under %d configurations, want %d (once per latency)", baselines, len(sweepLats))
	}
	if want := len(sweepLats) * (len(sweep) + 1); len(counts) != want {
		t.Errorf("total simulations = %d, want %d (machines + one shared baseline per latency)", len(counts), want)
	}
}
