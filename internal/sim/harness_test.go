package sim

import (
	"fmt"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/spec"
)

// TestJobBuildsModelRunner pins the bridge from Model into the harness:
// a job naming m.Spec() with cfg's divergence as overrides simulates
// exactly what the direct Run path does.
func TestJobBuildsModelRunner(t *testing.T) {
	cfg := quickCfg()
	ov, err := spec.OverridesFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := spec.SPECWorkload("swim", cfg.WarmupInsts+50_000)
	var jobs []exp.Job
	for _, m := range AllModels {
		ms := m.Spec()
		ms.Overrides = ov
		jobs = append(jobs, exp.Job{Name: fmt.Sprintf("job/%s", m), Machine: ms, Workload: wl})
	}
	rs, err := exp.Run(jobs, exp.Parallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllModels {
		direct := RunSPEC(m, cfg, "swim", 50_000)
		got := rs.MustGet(fmt.Sprintf("job/%s", m))
		if got.Cycles != direct.Cycles || got.Insts != direct.Insts {
			t.Errorf("%s: harness %d cycles, direct %d", m, got.Cycles, direct.Cycles)
		}
	}
}
