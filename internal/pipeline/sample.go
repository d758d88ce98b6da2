package pipeline

import (
	"math/rand"

	"icfp/internal/bpred"
	"icfp/internal/mem"
	"icfp/internal/stats"
	"icfp/internal/workload"
)

// SamplePolicy declares SMARTS-style interval sampling (Wunderlich et
// al., ISCA'03): the trace is split into fixed strata of Period
// instructions, one detailed-measurement window of Interval instructions
// is placed in each stratum, and the state between windows advances by
// functional warming only (caches and predictor, no timing). The zero
// policy means full simulation.
type SamplePolicy struct {
	// Interval is the detailed instructions measured per window.
	Interval int
	// Period is the stratum length: one window per Period instructions.
	// Period == Interval measures everything (a full run, byte-identical
	// to the unsampled path by construction — the windows coalesce).
	Period int
	// Warmup is the minimum functionally-warmed prefix before the first
	// window may begin; the machine's own WarmupInsts still applies, so
	// the measured region starts at max(machine warmup, Warmup).
	Warmup int
	// Ramp is the detailed-warming length (SMARTS "detailed warmup"):
	// each window's detailed simulation starts Ramp instructions before
	// the window, and those instructions are excluded from measurement.
	// Functional warming replays only the architectural stream, so state
	// that detailed execution itself creates — speculative predictor
	// training, advance-mode prefetches, in-flight misses — is absent at
	// a cold window entry; the ramp regenerates it before counting
	// starts.
	Ramp int
	// Seed selects stratified-random window placement inside each
	// stratum; 0 places windows systematically at stratum starts.
	Seed int64
}

// Enabled reports whether the policy requests sampling.
func (p SamplePolicy) Enabled() bool { return p.Interval > 0 }

// Window is one detailed-measurement interval [Start, End) in trace
// instruction indexes.
type Window struct {
	Start, End int
}

// Windows plans the detailed windows for a trace of n instructions on a
// machine that functionally warms the first warm instructions. Adjacent
// windows coalesce, so the degenerate Period == Interval policy yields
// exactly one window covering the whole measured region — structurally
// identical to a full run, which is what makes "sampled with
// period=interval is byte-identical to full" provable rather than
// approximate.
func (p SamplePolicy) Windows(warm, n int) []Window {
	base := warm
	if p.Warmup > base {
		base = p.Warmup
	}
	if base > n {
		base = n
	}
	if !p.Enabled() {
		return []Window{{Start: base, End: n}}
	}
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	var wins []Window
	for s := base; s < n; s += p.Period {
		off := 0
		if rng != nil && p.Period > p.Interval {
			// Stratified-random placement: a uniform offset per stratum,
			// drawn in stratum order so the plan is a pure function of
			// (policy, warm, n).
			off = rng.Intn(p.Period - p.Interval + 1)
		}
		lo := s + off
		hi := lo + p.Interval
		if lo >= n {
			break
		}
		if hi > n {
			hi = n
		}
		if nw := len(wins); nw > 0 && wins[nw-1].End == lo {
			wins[nw-1].End = hi // coalesce adjacent windows
		} else {
			wins = append(wins, Window{Start: lo, End: hi})
		}
	}
	if len(wins) == 0 {
		return []Window{{Start: base, End: n}}
	}
	return wins
}

// CombineWindows aggregates per-window partial Results into one Result.
// A single window passes through untouched (modulo the name), which is
// what keeps full runs and degenerate sampled runs byte-identical to the
// historical single-pass code. Multiple windows sum counts exactly,
// recombine per-KI rates by measured instructions, and attach the
// sampling statistics: the interval count and the 95% confidence
// half-width of CPI across windows (normal approximation, 1.96·s/√k —
// the SMARTS/RZBENCH "report how you measured" discipline).
func CombineWindows(name string, parts []Result) Result {
	if len(parts) == 0 {
		return Result{Name: name}
	}
	if len(parts) == 1 {
		res := parts[0]
		res.Name = name
		return res
	}
	var res Result
	res.Name = name
	var cpis []float64
	var fwdWeight float64
	for _, p := range parts {
		res.Cycles += p.Cycles
		res.Insts += p.Insts
		res.BranchMispredicts += p.BranchMispredicts
		res.Advances += p.Advances
		res.AdvanceInsts += p.AdvanceInsts
		res.RallyInsts += p.RallyInsts
		res.RallyPasses += p.RallyPasses
		res.SliceOverflows += p.SliceOverflows
		res.SBOverflows += p.SBOverflows
		res.PoisonAddrObs += p.PoisonAddrObs
		res.Squashes += p.Squashes
		res.SBForwards += p.SBForwards
		ki := float64(p.Insts) / 1000
		res.DCacheMissPerKI += p.DCacheMissPerKI * ki
		res.L2MissPerKI += p.L2MissPerKI * ki
		res.DCacheMLP += p.DCacheMLP * float64(p.Insts)
		res.L2MLP += p.L2MLP * float64(p.Insts)
		fw := float64(p.SBForwards)
		res.SBExtraHops += p.SBExtraHops * fw
		res.SBHopsAtLeast += p.SBHopsAtLeast * fw
		fwdWeight += fw
		if p.Insts > 0 {
			cpis = append(cpis, float64(p.Cycles)/float64(p.Insts))
		}
	}
	if res.Insts == 0 {
		return Result{Name: name}
	}
	ki := float64(res.Insts) / 1000
	res.DCacheMissPerKI /= ki
	res.L2MissPerKI /= ki
	res.DCacheMLP /= float64(res.Insts)
	res.L2MLP /= float64(res.Insts)
	res.RallyPerKI = float64(res.RallyInsts) / ki
	if fwdWeight > 0 {
		res.SBExtraHops /= fwdWeight
		res.SBHopsAtLeast /= fwdWeight
	} else {
		res.SBExtraHops, res.SBHopsAtLeast = 0, 0
	}
	res.SampleIntervals = len(cpis)
	_, res.SampleCPICI95 = stats.MeanCI95(cpis)
	return res
}

// RunWindowed is the shared driver behind every model's Run and
// RunSampled: it plans the detailed windows (one full window when the
// policy is zero), fetches warmed cache/predictor state for each window
// start from the workload's shared warm-state store, runs the model's
// detailed window function, and combines the partial results. runWindow
// receives a private warmed hierarchy and predictor (clones — the model
// may mutate them freely) and trace index bounds start <= meas < end: it
// must simulate [start, end) in detail starting at cycle 0 but measure
// only [meas, end) — Cycles, Insts, and every event counter cover the
// measured range (the [start, meas) ramp re-creates execution-dependent
// state functional warming cannot) — and report the window's Result
// (Name left empty); a Meter does that bookkeeping. Full runs always
// have start == meas, so the Meter's crossing snapshot is the zero
// state and the historical single-pass result is reproduced exactly.
func RunWindowed(w *workload.Workload, cfg *Config, pol SamplePolicy,
	runWindow func(hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, end int) Result) Result {
	n := w.Trace.Len()
	warm := cfg.WarmupInsts
	if warm > n {
		warm = n
	}
	wins := pol.Windows(warm, n)
	parts := make([]Result, 0, len(wins))
	for _, win := range wins {
		start := win.Start - pol.Ramp
		if start < 0 {
			start = 0
		}
		hier, pred := WarmState(w, cfg.Hier, cfg.Bpred, start)
		parts = append(parts, runWindow(hier, pred, start, win.Start, win.End))
	}
	return CombineWindows(w.Name, parts)
}
