// Benchmark harness: BenchmarkRegistry runs every entry of the
// experiment registry (the paper's §5 tables and figures), so
//
//	go test -bench=Registry -benchmem
//
// regenerates the whole evaluation through the same code path as
// cmd/experiments. Sample sizes are scaled down from the interactive
// cmd/experiments defaults (-n 150000 -warm 50000) to keep the harness
// fast; run cmd/experiments for the rendered full-size tables.
package repro

import (
	"testing"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/icfp"
	"icfp/internal/inorder"
	"icfp/internal/pipeline"
	"icfp/internal/sim"
	"icfp/internal/workload"
)

const (
	benchTimed = 150_000
	benchWarm  = 50_000
)

func benchCfg() pipeline.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInsts = benchWarm
	return cfg
}

// benchParams is the registry at the harness sample size.
func benchParams() registry.Params {
	return registry.Params{Cfg: benchCfg(), N: benchTimed}
}

// BenchmarkRegistry regenerates the paper's evaluation the way
// cmd/experiments does: one sub-benchmark per registry entry (every
// table, figure and study), each a fresh-cache registry run at the
// harness sample size, reporting how many simulations it took.
func BenchmarkRegistry(b *testing.B) {
	p := benchParams()
	for _, name := range registry.Names() {
		b.Run(name, func(b *testing.B) {
			var sims int
			for i := 0; i < b.N; i++ {
				cache := exp.NewCache()
				if _, err := registry.Run([]string{name}, p, exp.WithCache(cache)); err != nil {
					b.Fatal(err)
				}
				sims = cache.Simulations()
			}
			b.ReportMetric(float64(sims), "sims")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// instructions per second) for the heaviest machine, as an engineering
// figure of merit for the harness itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchCfg()
	w := workload.SPEC("equake", cfg.WarmupInsts+benchTimed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.Run(sim.ICFP, cfg, w)
		b.SetBytes(r.Insts) // "bytes" = simulated instructions
	}
}

// BenchmarkScenarios runs the six Figure 1 micro-scenarios on iCFP.
func BenchmarkScenarios(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	for _, sc := range workload.AllScenarios {
		b.Run(string(sc), func(b *testing.B) {
			var r pipeline.Result
			for i := 0; i < b.N; i++ {
				r = icfp.New(cfg).Run(workload.NewScenario(sc))
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
		})
	}
}

// TestEvaluationShape is the integration test of the reproduction: the
// qualitative claims of §5 must hold on the synthetic suite, read from
// the registry's Figure 5 result set at the harness sample size.
func TestEvaluationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite integration test")
	}
	sets, err := registry.Run([]string{"fig5"}, benchParams())
	if err != nil {
		t.Fatal(err)
	}
	rs := sets["fig5"]
	geo := map[sim.Model]float64{}
	for _, m := range []sim.Model{sim.Runahead, sim.Multipass, sim.SLTP, sim.ICFP} {
		pairs := make([][2]string, 0, len(workload.AllSPECNames))
		for _, name := range workload.AllSPECNames {
			pairs = append(pairs, [2]string{"fig5/" + name + "/" + m.String(), "fig5/" + name + "/base"})
		}
		geo[m] = rs.GeoMeanSpeedup(pairs)
	}
	t.Logf("geomean speedups: RA %+.1f%% MP %+.1f%% SLTP %+.1f%% iCFP %+.1f%%",
		geo[sim.Runahead], geo[sim.Multipass], geo[sim.SLTP], geo[sim.ICFP])

	// Claim 1: iCFP out-performs Runahead, Multipass and SLTP on average.
	for _, m := range []sim.Model{sim.Runahead, sim.Multipass, sim.SLTP} {
		if geo[sim.ICFP] <= geo[m] {
			t.Errorf("iCFP geomean %.1f%% must beat %s %.1f%%", geo[sim.ICFP], m, geo[m])
		}
	}
	// Claim 2: every design helps on average (positive geomeans).
	for m, g := range geo {
		if g < 0 {
			t.Errorf("%s geomean %.1f%% must be positive", m, g)
		}
	}
	// Claim 3: high-miss benchmarks see speedups of 40%+ under iCFP.
	for _, name := range []string{"ammp", "art"} {
		if sp := rs.Speedup("fig5/"+name+"/iCFP", "fig5/"+name+"/base"); sp < 40 {
			t.Errorf("%s iCFP speedup %.1f%%, paper reports 40%%+", name, sp)
		}
	}
}

// TestInOrderBaselineSanity pins the baseline's character: a low-miss
// benchmark runs near the machine's width-limited IPC, a memory-bound one
// runs far below it.
func TestInOrderBaselineSanity(t *testing.T) {
	cfg := benchCfg()
	mesa := inorder.New(cfg).Run(workload.SPEC("mesa", cfg.WarmupInsts+benchTimed))
	mcf := inorder.New(cfg).Run(workload.SPEC("mcf", cfg.WarmupInsts+benchTimed))
	if mesa.IPC() < 0.8 {
		t.Errorf("mesa in-order IPC %.2f too low", mesa.IPC())
	}
	if mcf.IPC() > 0.2 {
		t.Errorf("mcf in-order IPC %.2f too high for a chase-bound workload", mcf.IPC())
	}
}
