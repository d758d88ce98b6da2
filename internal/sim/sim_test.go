package sim

import (
	"testing"

	"icfp/internal/pipeline"
)

func quickCfg() pipeline.Config {
	cfg := DefaultConfig()
	cfg.WarmupInsts = 30_000
	return cfg
}

func TestModelStrings(t *testing.T) {
	want := map[Model]string{
		InOrder: "in-order", Runahead: "Runahead", Multipass: "Multipass",
		SLTP: "SLTP", ICFP: "iCFP",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d = %q", m, m.String())
		}
	}
	if len(AllModels) != 5 {
		t.Fatal("five machines expected")
	}
}

func TestRunAllModels(t *testing.T) {
	cfg := quickCfg()
	for _, m := range AllModels {
		r := RunSPEC(m, cfg, "equake", 100_000)
		if r.Cycles <= 0 || r.Insts < 100_000 || r.Insts > 100_200 {
			t.Fatalf("%s: cycles=%d insts=%d", m, r.Cycles, r.Insts)
		}
	}
}

func TestICFPIsTheFastestOnHighMissFP(t *testing.T) {
	// The headline Figure 5 shape on one representative benchmark.
	cfg := quickCfg()
	cycles := map[Model]int64{}
	for _, m := range AllModels {
		cycles[m] = RunSPEC(m, cfg, "ammp", 200_000).Cycles
	}
	for _, m := range []Model{InOrder, Runahead, Multipass, SLTP} {
		if cycles[ICFP] >= cycles[m] {
			t.Errorf("iCFP (%d) must beat %s (%d) on ammp", cycles[ICFP], m, cycles[m])
		}
	}
}
