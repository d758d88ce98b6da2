package runahead_test

// Multipass as the spec builds it: runahead.NewMultipass behind the
// paper's advance trigger (L2 plus primary D$ misses, blocking on
// secondary D$ misses) unless the machine names its own.

import (
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// multipass builds the paper's Multipass machine on cfg.
func multipass(cfg pipeline.Config) spec.Runner {
	return spec.Machine{Model: spec.ModelMultipass}.Build(cfg)
}

func TestMultipassAcceleratesReexecution(t *testing.T) {
	// The result buffer breaks dependences on re-execution passes, so
	// Multipass should match or beat plain Runahead on most workloads
	// (the paper: "usually slightly out-performs Runahead").
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 50_000
	wins := 0
	for _, name := range []string{"ammp", "mcf", "gap"} {
		ra := runahead.New(cfg).Run(workload.SPEC(name, 250_000))
		mp := multipass(cfg).Run(workload.SPEC(name, 250_000))
		if mp.Cycles <= ra.Cycles {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("Multipass beat Runahead on only %d of 3 dependent-miss workloads", wins)
	}
}

func TestMultipassAdvancesUnderPrimaryD1(t *testing.T) {
	// Multipass's paper configuration triggers on primary D$ misses too,
	// so it advances even on workloads without L2 misses.
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 50_000
	r := multipass(cfg).Run(workload.SPEC("twolf", 200_000))
	if r.Advances == 0 {
		t.Fatal("Multipass must advance under twolf's D$ misses")
	}
}

func TestMultipassExplicitTriggerOverride(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 50_000
	m := spec.Machine{Model: spec.ModelMultipass, Trigger: spec.TriggerL2}
	l2 := m.Build(cfg).Run(workload.SPEC("twolf", 200_000))
	if l2.Advances != 0 {
		t.Fatalf("L2-only Multipass advanced %d times on an L2-hit workload", l2.Advances)
	}
}

func TestMultipassDeterminism(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = 20_000
	a := multipass(cfg).Run(workload.SPEC("gcc", 120_000))
	b := multipass(cfg).Run(workload.SPEC("gcc", 120_000))
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}
