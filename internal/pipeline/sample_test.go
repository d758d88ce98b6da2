package pipeline

import (
	"math"
	"testing"

	"icfp/internal/bpred"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

func TestWindowsFullRun(t *testing.T) {
	var pol SamplePolicy // zero: full simulation
	wins := pol.Windows(100, 1000)
	if len(wins) != 1 || wins[0] != (Window{100, 1000}) {
		t.Fatalf("zero policy windows = %v, want [{100 1000}]", wins)
	}
}

func TestWindowsPeriodEqualsIntervalCoalesces(t *testing.T) {
	pol := SamplePolicy{Interval: 50, Period: 50}
	wins := pol.Windows(100, 1000)
	if len(wins) != 1 || wins[0] != (Window{100, 1000}) {
		t.Fatalf("degenerate policy windows = %v, want one coalesced [{100 1000}]", wins)
	}
	// The coalescing must hold for any seed: with period == interval
	// there is no placement freedom.
	pol.Seed = 12345
	wins = pol.Windows(100, 1000)
	if len(wins) != 1 || wins[0] != (Window{100, 1000}) {
		t.Fatalf("seeded degenerate policy windows = %v, want one coalesced [{100 1000}]", wins)
	}
}

func TestWindowsSystematic(t *testing.T) {
	pol := SamplePolicy{Interval: 10, Period: 100}
	wins := pol.Windows(0, 1000)
	if len(wins) != 10 {
		t.Fatalf("got %d windows, want 10: %v", len(wins), wins)
	}
	for i, w := range wins {
		if w.Start != i*100 || w.End != i*100+10 {
			t.Fatalf("window %d = %v, want {%d %d}", i, w, i*100, i*100+10)
		}
	}
}

func TestWindowsWarmupBase(t *testing.T) {
	pol := SamplePolicy{Interval: 10, Period: 100, Warmup: 250}
	wins := pol.Windows(100, 1000)
	if wins[0].Start != 250 {
		t.Fatalf("first window starts at %d, want the policy warmup 250", wins[0].Start)
	}
	pol.Warmup = 50 // machine warmup dominates
	wins = pol.Windows(100, 1000)
	if wins[0].Start != 100 {
		t.Fatalf("first window starts at %d, want the machine warmup 100", wins[0].Start)
	}
}

func TestWindowsSeededPlacement(t *testing.T) {
	pol := SamplePolicy{Interval: 10, Period: 100, Seed: 7}
	a := pol.Windows(0, 10_000)
	b := pol.Windows(0, 10_000)
	if len(a) != len(b) {
		t.Fatal("seeded planning not deterministic")
	}
	offsetSeen := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeded planning not deterministic")
		}
		if a[i].Start%100 != 0 {
			offsetSeen = true
		}
		if a[i].End-a[i].Start != 10 {
			t.Fatalf("window %v is not Interval long", a[i])
		}
		if a[i].Start/100 != i {
			t.Fatalf("window %d = %v escaped its stratum", i, a[i])
		}
	}
	if !offsetSeen {
		t.Fatal("seed 7 placed every window at its stratum start; want random offsets")
	}
}

func TestWindowsClampedAtEnd(t *testing.T) {
	pol := SamplePolicy{Interval: 30, Period: 100}
	wins := pol.Windows(0, 220)
	want := []Window{{0, 30}, {100, 130}, {200, 220}}
	if len(wins) != len(want) {
		t.Fatalf("windows = %v, want %v", wins, want)
	}
	for i := range want {
		if wins[i] != want[i] {
			t.Fatalf("windows = %v, want %v", wins, want)
		}
	}
}

func TestCombineWindowsSingleIsPassthrough(t *testing.T) {
	part := Result{
		Cycles: 123, Insts: 456, DCacheMissPerKI: 7.5, L2MLP: 1.25,
		BranchMispredicts: 9, SBExtraHops: 0.5,
	}
	got := CombineWindows("w", []Result{part})
	want := part
	want.Name = "w"
	if got != want {
		t.Fatalf("single-part combine = %+v, want verbatim passthrough %+v", got, want)
	}
	if got.SampleIntervals != 0 {
		t.Fatal("single-window result must not claim sampling statistics")
	}
}

func TestCombineWindowsAggregates(t *testing.T) {
	parts := []Result{
		{Cycles: 1000, Insts: 500, DCacheMissPerKI: 10, DCacheMLP: 2, RallyInsts: 50, SBForwards: 10, SBExtraHops: 1},
		{Cycles: 3000, Insts: 1500, DCacheMissPerKI: 20, DCacheMLP: 4, RallyInsts: 150, SBForwards: 30, SBExtraHops: 2},
	}
	got := CombineWindows("w", parts)
	if got.Cycles != 4000 || got.Insts != 2000 {
		t.Fatalf("totals = %d cycles, %d insts; want 4000, 2000", got.Cycles, got.Insts)
	}
	// Miss rate recombines by measured instructions: (10*0.5 + 20*1.5)/2.
	if want := 17.5; math.Abs(got.DCacheMissPerKI-want) > 1e-12 {
		t.Fatalf("DCacheMissPerKI = %v, want %v", got.DCacheMissPerKI, want)
	}
	// MLP recombines insts-weighted: (2*500 + 4*1500)/2000.
	if want := 3.5; math.Abs(got.DCacheMLP-want) > 1e-12 {
		t.Fatalf("DCacheMLP = %v, want %v", got.DCacheMLP, want)
	}
	// Hop mean recombines forward-weighted: (1*10 + 2*30)/40.
	if want := 1.75; math.Abs(got.SBExtraHops-want) > 1e-12 {
		t.Fatalf("SBExtraHops = %v, want %v", got.SBExtraHops, want)
	}
	if want := 100.0; math.Abs(got.RallyPerKI-want) > 1e-12 {
		t.Fatalf("RallyPerKI = %v, want %v", got.RallyPerKI, want)
	}
	if got.SampleIntervals != 2 {
		t.Fatalf("SampleIntervals = %d, want 2", got.SampleIntervals)
	}
	// Both windows have CPI 2.0: the half-width must be 0.
	if got.SampleCPICI95 != 0 {
		t.Fatalf("equal-CPI windows got CI %v, want 0", got.SampleCPICI95)
	}

	// Unequal CPIs yield a positive half-width.
	parts[1].Cycles = 6000
	got = CombineWindows("w", parts)
	if got.SampleCPICI95 <= 0 {
		t.Fatalf("unequal-CPI windows got CI %v, want > 0", got.SampleCPICI95)
	}
}

// TestRunWindowedRampBounds pins the driver's measurement-boundary
// contract: with a ramp, runWindow receives start = max(0, meas - Ramp)
// and meas at the planned window start; without one, start == meas (the
// invariant full runs rely on for byte-identity — the boundary snapshot
// is then the zero state).
func TestRunWindowedRampBounds(t *testing.T) {
	w := workload.SPEC("gzip", 2_000)
	cfg := DefaultConfig()
	cfg.WarmupInsts = 100

	type triple struct{ start, meas, end int }
	var got []triple
	record := func(hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, end int) Result {
		got = append(got, triple{start, meas, end})
		return Result{Cycles: int64(end - meas), Insts: int64(end - meas)}
	}

	got = nil
	RunWindowed(w, &cfg, SamplePolicy{Interval: 100, Period: 500, Ramp: 250}, record)
	want := []triple{{0, 100, 200}, {350, 600, 700}, {850, 1100, 1200}, {1350, 1600, 1700}}
	if len(got) != len(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d = %v, want %v (ramp must clamp at trace start)", i, got[i], want[i])
		}
	}

	got = nil
	RunWindowed(w, &cfg, SamplePolicy{}, record)
	n := w.Trace.Len()
	if len(got) != 1 || got[0] != (triple{100, 100, n}) {
		t.Fatalf("full run windows = %v, want one {100 100 %d} (start == meas)", got, n)
	}
}

// TestSubCounters spot-checks the boundary-snapshot subtraction helper.
func TestSubCounters(t *testing.T) {
	a := Result{Cycles: 100, Insts: 50, BranchMispredicts: 9, Advances: 5, RallyInsts: 30, SBForwards: 12, DCacheMissPerKI: 7.5}
	b := Result{BranchMispredicts: 4, Advances: 2, RallyInsts: 10, SBForwards: 5}
	got := subCounters(a, b)
	if got.BranchMispredicts != 5 || got.Advances != 3 || got.RallyInsts != 20 || got.SBForwards != 7 {
		t.Fatalf("subCounters = %+v", got)
	}
	// Non-counter fields pass through untouched.
	if got.Cycles != 100 || got.Insts != 50 || got.DCacheMissPerKI != 7.5 {
		t.Fatalf("subCounters touched non-counter fields: %+v", got)
	}
}
