package pipeline

import (
	"icfp/internal/mem"
	"icfp/internal/stats"
)

// Meter measures one detailed window for every model (RunWindowed's
// runWindow contract): the window simulates [start, end) but reports
// only [meas, end). It owns the three pieces of that bookkeeping the
// models share — the data-cache and L2 MLP trackers behind the
// hierarchy's miss hook, the once-only latch that snapshots counters
// when detailed execution crosses meas, and the epilogue that turns the
// end-of-window counters into the window's Result. A model keeps its
// crossing test inline in its hot loop and calls the meter's methods
// once per window.
type Meter struct {
	hier      *mem.Hierarchy
	meas, end int

	crossed bool
	base    int64     // finish cycle at the crossing
	res0    Result    // model counters at the crossing
	hs0     mem.Stats // hierarchy counters at the crossing

	dTrack, l2Track stats.MLPTracker
}

// NewMeter returns the meter of a window measuring trace indexes
// [meas, end) on hier.
func NewMeter(hier *mem.Hierarchy, meas, end int) *Meter {
	return &Meter{hier: hier, meas: meas, end: end}
}

// ObserveMisses installs the meter's MLP trackers as the hierarchy's
// miss hook. They see the whole detailed range, ramp included: MLP is a
// distribution summary, not an extensive counter, and the ramp's misses
// come from the same machine state. A model that never calls it reports
// zero MLP.
func (m *Meter) ObserveMisses() {
	m.hier.MissObserver = func(start, done int64, l2 bool) {
		m.dTrack.Add(start, done)
		if l2 {
			m.l2Track.Add(start, done)
		}
	}
}

// Crossed reports whether Cross has latched the measurement boundary.
func (m *Meter) Crossed() bool { return m.crossed }

// Cross latches the measurement boundary: the model's finish cycle and
// counters when detailed execution first reaches meas, and the
// hierarchy's counters with them. Result reports differences from this
// snapshot. Only the first call counts; a model whose cursor can rewind
// below meas (a squash) charges the replay to the measured range.
func (m *Meter) Cross(finish int64, res Result) {
	if m.crossed {
		return
	}
	m.crossed = true
	m.base, m.res0, m.hs0 = finish, res, m.hier.Stats
}

// Result reports the window from the model's finish cycle and counters
// at its end: cycles and additive counters since the crossing, the
// measured instruction count, per-KI miss and rally rates, and MLP. A
// window that measures no instructions reports the zero Result, so no
// rate divides by zero.
func (m *Meter) Result(finish int64, res Result) Result {
	insts := int64(m.end - m.meas)
	if insts == 0 {
		return Result{}
	}
	ki := float64(insts) / 1000
	hs := m.hier.Stats
	res = subCounters(res, m.res0)
	res.Cycles = finish - m.base
	res.Insts = insts
	res.DCacheMissPerKI = float64(hs.DataL1Misses-m.hs0.DataL1Misses) / ki
	res.L2MissPerKI = float64(hs.DataL2Misses-m.hs0.DataL2Misses) / ki
	res.DCacheMLP = m.dTrack.MLP()
	res.L2MLP = m.l2Track.MLP()
	res.RallyPerKI = float64(res.RallyInsts) / ki
	return res
}

// subCounters returns a with every additive event counter reduced by its
// value in b — the counters a Meter reports as differences from the
// crossing. Derived rates and identity fields are left untouched.
func subCounters(a, b Result) Result {
	a.BranchMispredicts -= b.BranchMispredicts
	a.Advances -= b.Advances
	a.AdvanceInsts -= b.AdvanceInsts
	a.RallyInsts -= b.RallyInsts
	a.RallyPasses -= b.RallyPasses
	a.SliceOverflows -= b.SliceOverflows
	a.SBOverflows -= b.SBOverflows
	a.PoisonAddrObs -= b.PoisonAddrObs
	a.Squashes -= b.Squashes
	a.SBForwards -= b.SBForwards
	return a
}
