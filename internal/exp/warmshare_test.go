package exp_test

import (
	"testing"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// TestWarmStateSharedAcrossTiming pins that warm-state checkpoints are
// timing-free: every model, full and sampled, gives an identical Result
// at L2 hit latency 10 whether its workload's warm series was first
// built for that machine or for one at latency 20, whose masters it then
// clones with its own timing.
func TestWarmStateSharedAcrossTiming(t *testing.T) {
	const n = 30_000
	wl := spec.SPECWorkload("mcf", n)
	pol := (&spec.Sampling{Mode: spec.ModeSampled, Interval: 2_000, Period: 9_000, Ramp: 1_000}).Policy()

	run := func(model string, lat int, w *workload.Workload, sampled bool) pipeline.Result {
		t.Helper()
		m := spec.Machine{Model: model, Overrides: &spec.Overrides{L2HitLat: spec.Int(lat), Warmup: spec.Int(6_000)}}
		r, err := m.New()
		if err != nil {
			t.Fatal(err)
		}
		if sampled {
			return r.RunSampled(w, pol)
		}
		return r.Run(w)
	}
	for _, model := range spec.Models {
		for _, sampled := range []bool{false, true} {
			direct := exp.NewArena().Get(wl)
			want := run(model, 10, direct, sampled)

			shared := exp.NewArena().Get(wl)
			other := run(model, 20, shared, sampled)
			got := run(model, 10, shared, sampled)
			if got != want {
				t.Errorf("%s (sampled %v): clone of a latency-20 master diverged:\ndirect %+v\nshared %+v", model, sampled, want, got)
			}
			if other == want {
				t.Errorf("%s (sampled %v): latency 20 and 10 gave identical results; the sweep has no teeth", model, sampled)
			}
		}
	}
}
