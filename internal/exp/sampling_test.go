package exp_test

import (
	"math"
	"runtime"
	"syscall"
	"testing"
	"time"

	"icfp/internal/exp"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/spec"
)

// TestSampledDegenerateIsFullIdentity pins the canonical-identity rule:
// a sampling policy with no effect (period == interval, no warmup — it
// measures every instruction) canonicalizes away, so the job shares the
// full run's cache key, simulates once, and returns the identical
// result. This is what keeps every pre-sampling cache file, golden, and
// dist identity valid.
func TestSampledDegenerateIsFullIdentity(t *testing.T) {
	full := exp.Job{Name: "full", Machine: sim.ICFP.Spec(), Workload: spec.SPECWorkload("mcf", 20_000)}
	deg := full
	deg.Name = "deg"
	deg.Workload.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 4_000, Period: 4_000}
	if full.Key() != deg.Key() {
		t.Fatalf("degenerate sampled key differs from full:\n%v\n%v", deg.Key(), full.Key())
	}
	explicit := full
	explicit.Name = "explicit"
	explicit.Workload.Sampling = &spec.Sampling{Mode: spec.ModeFull}
	if full.Key() != explicit.Key() {
		t.Fatal("explicit full-mode policy must share the bare workload's key")
	}

	cache := exp.NewCache()
	rs, err := exp.Run([]exp.Job{full, deg, explicit}, exp.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Simulations(); got != 1 {
		t.Fatalf("three spellings of one identity simulated %d times, want 1", got)
	}
	if rs.MustGet("full") != rs.MustGet("deg") || rs.MustGet("full") != rs.MustGet("explicit") {
		t.Fatal("degenerate sampled result differs from the full run")
	}
}

// TestSampledRunAllModels pins the harness dispatch seam: a live sampled
// workload reaches every model's RunSampled path and comes back carrying
// sampling statistics, while the full run of the same benchmark carries
// none — and both share one generated workload (and with it the
// warmed-state checkpoint store) through the arena.
func TestSampledRunAllModels(t *testing.T) {
	const n = 30_000
	warm := &spec.Overrides{Warmup: spec.Int(2_000)}
	wl := spec.SPECWorkload("mcf", n)
	swl := wl
	swl.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 1_000, Period: 7_000}

	cache := exp.NewCache()
	arena := exp.NewArena()
	var jobs []exp.Job
	for _, m := range spec.Models {
		mach := spec.Machine{Model: m, Overrides: warm}
		jobs = append(jobs,
			exp.Job{Name: m + "/full", Machine: mach, Workload: wl},
			exp.Job{Name: m + "/sampled", Machine: mach, Workload: swl})
	}
	rs, err := exp.Run(jobs, exp.WithCache(cache), exp.WithArena(arena))
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Simulations(); got != 2*len(spec.Models) {
		t.Fatalf("simulated %d, want %d (sampled and full are distinct identities)", got, 2*len(spec.Models))
	}
	if got := arena.Generations(); got != 1 {
		t.Fatalf("generated %d workloads, want 1 (sampled and full share the base workload)", got)
	}
	for _, m := range spec.Models {
		f, s := rs.MustGet(m+"/full"), rs.MustGet(m+"/sampled")
		if f.SampleIntervals != 0 || f.SampleCPICI95 != 0 {
			t.Errorf("%s: full run carries sampling statistics: %+v", m, f)
		}
		if s.SampleIntervals < 2 {
			t.Errorf("%s: sampled run measured %d intervals, want >= 2", m, s.SampleIntervals)
		}
		if s.Insts >= f.Insts {
			t.Errorf("%s: sampled run measured %d insts, full %d; sampling must measure less", m, s.Insts, f.Insts)
		}
		if f.CPI() <= 0 || s.CPI() <= 0 {
			t.Fatalf("%s: non-positive CPI (full %v, sampled %v)", m, f.CPI(), s.CPI())
		}
		// A loose sanity band; the tight accuracy claim is pinned on a
		// long workload below, where sampling theory actually applies.
		if relErr := math.Abs(s.CPI()-f.CPI()) / f.CPI(); relErr > 0.25 {
			t.Errorf("%s: sampled CPI %v vs full %v (%.1f%% off)", m, s.CPI(), f.CPI(), 100*relErr)
		}
	}
}

// TestSampledSpeedupAndAccuracy is the acceptance run: on a workload two
// orders of magnitude past the unit-test norm, sampled mode must beat
// full simulation by >= 10x on every model while estimating CPI within
// 1% — and within its own reported 95% interval, the statistical-honesty
// bar the harness exists to enforce.
//
// Speed is compared in process CPU time, not wall clock, so that time
// spent waiting for a CPU does not count. Contention still slows the
// CPU itself (shared cores and caches under a parallel `go test ./...`
// or a noisy neighbour), so the short sampled leg is the best of four
// runs spread around the full one (one before, three after), each from
// a fresh GC. The full leg runs once: under the race detector it takes
// most of a minute per model.
//
// The warm-state checkpoint store is pre-populated by one untimed
// sampled run, mirroring a registry sweep: the arena shares the workload
// (and its attached checkpoints) across all jobs, so only the first run
// pays trace-replay warming and every later model clones.
func TestSampledSpeedupAndAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second acceptance run")
	}
	const n = 12_000_000
	full := spec.SPECWorkload("mcf", n)
	sampled := full
	// The ramp dominates each window's detailed stretch: the speculative
	// models' episodes perturb long-lived L2 state (wrong-path pollution
	// and prefetch benefit) that functional warming cannot recreate, and
	// the resulting transient takes tens of thousands of detailed
	// instructions to die out. A 60k ramp ahead of each 20k measured
	// interval keeps per-model bias under ~0.5% while twelve windows give
	// the CI honest width; the period keeps the detailed fraction at 8%,
	// leaving the >= 10x speedup margin. The seed picks one fixed
	// stratified-random placement (the run is deterministic either way).
	sampled.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 20_000, Period: 1_000_000, Ramp: 60_000, Seed: 3}

	arena := exp.NewArena()
	w := arena.Get(sampled) // shared with the full jobs: sampling is not part of the base identity
	pol := sampled.Sampling.Policy()

	newMachine := func(model string) spec.Runner {
		r, err := spec.Machine{Model: model}.New()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// cpu runs f after a fresh GC and returns its result and the process
	// CPU time it took.
	cpu := func(f func() pipeline.Result) (pipeline.Result, time.Duration) {
		runtime.GC()
		c0 := processCPU(t)
		res := f()
		return res, processCPU(t) - c0
	}
	// Untimed warm-store population.
	newMachine(spec.ModelInOrder).RunSampled(w, pol)

	for _, m := range spec.Models {
		var fres, sres pipeline.Result
		var tFull time.Duration
		tSampled := time.Duration(math.MaxInt64)
		for i := range 5 {
			if i == 1 {
				fres, tFull = cpu(func() pipeline.Result { return newMachine(m).Run(w) })
				continue
			}
			r, d := cpu(func() pipeline.Result { return newMachine(m).RunSampled(w, pol) })
			sres, tSampled = r, min(tSampled, d)
		}

		speedup := float64(tFull) / float64(tSampled)
		cpiErr := math.Abs(sres.CPI() - fres.CPI())
		relErr := cpiErr / fres.CPI()
		t.Logf("%-10s full %8v  sampled %8v CPU  (%5.1fx)  CPI %.4f vs %.4f ±%.4f (%.3f%% off, %d windows)",
			m, tFull.Round(time.Millisecond), tSampled.Round(time.Millisecond), speedup,
			sres.CPI(), fres.CPI(), sres.SampleCPICI95, 100*relErr, sres.SampleIntervals)
		if speedup < 10 {
			t.Errorf("%s: sampled speedup %.1fx, want >= 10x", m, speedup)
		}
		if relErr > 0.01 {
			t.Errorf("%s: sampled CPI %.4f vs full %.4f: %.3f%% error, want <= 1%%", m, sres.CPI(), fres.CPI(), 100*relErr)
		}
		if cpiErr > sres.SampleCPICI95 {
			t.Errorf("%s: CPI error %.5f outside the reported 95%% interval ±%.5f", m, cpiErr, sres.SampleCPICI95)
		}
	}
}

// processCPU returns the user plus system CPU time this process has
// consumed so far.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
