package pipeline

import (
	"testing"

	"icfp/internal/mem"
)

// TestMeterCrossesOnce pins the latch: only the first Cross counts, and
// Result reports cycles and counters as differences from it.
func TestMeterCrossesOnce(t *testing.T) {
	hier := mem.New(mem.DefaultConfig())
	m := NewMeter(hier, 10, 2010)
	if m.Crossed() {
		t.Fatal("a fresh meter reports a crossing")
	}
	m.Cross(100, Result{BranchMispredicts: 3, RallyInsts: 40})
	m.Cross(500, Result{BranchMispredicts: 9, RallyInsts: 90}) // ignored
	if !m.Crossed() {
		t.Fatal("Cross did not latch")
	}
	got := m.Result(1100, Result{BranchMispredicts: 8, RallyInsts: 140})
	if got.Cycles != 1000 || got.Insts != 2000 || got.BranchMispredicts != 5 || got.RallyInsts != 100 || got.RallyPerKI != 50 {
		t.Fatalf("Result = %+v", got)
	}
}

// TestMeterMLPNeedsObserver pins that MLP comes only from the miss hook:
// a model that never installs it (ooo) reports zero MLP while miss
// rates still count.
func TestMeterMLPNeedsObserver(t *testing.T) {
	for _, observe := range []bool{false, true} {
		hier := mem.New(mem.DefaultConfig())
		m := NewMeter(hier, 0, 1000)
		if observe {
			m.ObserveMisses()
		}
		m.Cross(0, Result{})
		for k := uint64(0); k < 4; k++ {
			hier.Data(int64(k), 0x100000+k*4096, false)
		}
		got := m.Result(400, Result{})
		if got.DCacheMissPerKI == 0 {
			t.Fatalf("observe=%v: no misses counted: %+v", observe, got)
		}
		if (got.DCacheMLP > 0) != observe {
			t.Fatalf("observe=%v: DCacheMLP = %v", observe, got.DCacheMLP)
		}
	}
}

// TestMeterEmptyWindow pins the zero-instruction guard: no rate divides
// by zero.
func TestMeterEmptyWindow(t *testing.T) {
	m := NewMeter(mem.New(mem.DefaultConfig()), 50, 50)
	if got := m.Result(123, Result{Advances: 2}); got != (Result{}) {
		t.Fatalf("empty window = %+v, want the zero Result", got)
	}
}
