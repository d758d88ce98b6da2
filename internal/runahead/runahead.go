// Package runahead implements Runahead execution (Dundas & Mudge, ICS'97;
// Mutlu et al., HPCA'03) on the baseline in-order pipeline, and — via a
// result buffer that saves miss-independent results to accelerate
// re-execution — "flea-flicker" Multipass pipelining (Barnes et al.,
// MICRO'05).
//
// On a triggering miss the machine checkpoints the register file and
// advances past the miss in a speculative, non-committing mode: poisoned
// (miss-dependent) instructions are skipped, independent loads prefetch,
// and advance stores forward through a small runahead cache. When the
// triggering miss returns, the checkpoint is restored and ALL post-miss
// instructions re-execute — the re-processing overhead that iCFP's slice
// buffer avoids.
package runahead

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

// Machine is a Runahead (or, with the result buffer enabled, Multipass)
// pipeline.
//
// A Machine may be reused for any number of sequential Run calls — the
// allocation-heavy run scratch (the runahead cache and the Multipass
// result-buffer marks) is retained across calls — but it must not be
// shared between goroutines: concurrent Run calls race on that scratch.
type Machine struct {
	cfg       pipeline.Config
	multipass bool

	// Run scratch, reused across Run calls.
	rc      *pipeline.RunaheadCache
	resMark []bool
}

// New returns a Runahead machine. Unless the caller chose otherwise, the
// paper's best Runahead configuration applies: advance under L2 misses
// only, block on data-cache misses during advance ("D$-b").
func New(cfg pipeline.Config) *Machine {
	return &Machine{cfg: cfg}
}

// NewMultipass returns a Multipass machine: Runahead plus a result buffer
// that saves miss-independent advance results and uses them to break
// dependences during re-execution passes. It runs on cfg's advance
// trigger as given; the paper's Multipass setting (L2 plus primary D$
// misses, blocking on secondary D$ misses) is what spec.Machine.Build
// sets for the multipass model.
func NewMultipass(cfg pipeline.Config) *Machine {
	return &Machine{cfg: cfg, multipass: true}
}

// strictCycles (test-only) forces slot allocation to step one cycle at a
// time (SlotAlloc.TakeStrict) instead of jumping straight to the next
// fitting cycle. Simulated behaviour must be identical either way — the
// equivalence tests in strict_test.go pin that — so the flag exists
// purely to exercise the skip-ahead against the trivially correct strict
// walk.
var strictCycles = false

// run bundles per-window state.
type run struct {
	cfg   *pipeline.Config
	mp    bool
	tr    *isa.Trace
	end   int // window end (exclusive trace index); tr.Len() for full runs
	hier  *mem.Hierarchy
	front *pipeline.Frontend
	slots *pipeline.SlotAlloc
	sb    *pipeline.StoreBuffer
	board pipeline.Scoreboard
	rc    *pipeline.RunaheadCache

	// Multipass result buffer: resMark[j] is set while trace index j holds
	// a result computed during an advance pass that remains valid, and
	// resLive counts set marks (bounded by cfg.ResultBufEntries). A mark
	// array replaces the obvious map: every marked index lies ahead of the
	// normal-mode cursor and is consumed exactly once when the cursor
	// passes it, so the array is self-cleaning by the end of a run and the
	// pass loop allocates nothing.
	resMark []bool
	resLive int

	lastIssue  int64
	finish     int64
	lastDetect int64

	res pipeline.Result
}

// Run simulates the workload to completion.
func (m *Machine) Run(w *workload.Workload) pipeline.Result {
	return m.RunSampled(w, pipeline.SamplePolicy{})
}

// RunSampled simulates the workload under the given sampling policy,
// running the detailed model only inside measurement windows. The zero
// policy is a full run.
func (m *Machine) RunSampled(w *workload.Workload, pol pipeline.SamplePolicy) pipeline.Result {
	return pipeline.RunWindowed(w, &m.cfg, pol,
		func(hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, hi int) pipeline.Result {
			return m.runWindow(w, hier, pred, start, meas, hi)
		})
}

// runWindow runs the detailed model over trace indexes [start, hi) from
// the given warmed state at cycle 0, measuring [meas, hi) with a
// pipeline.Meter. An advance episode in flight at the crossing is
// charged to the ramp (the step loop crosses between normal-mode
// steps), a boundary effect bounded by one episode.
func (m *Machine) runWindow(w *workload.Workload, hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, hi int) pipeline.Result {
	cfg := m.cfg
	r := &run{cfg: &cfg, mp: m.multipass, tr: w.Trace, end: hi}
	r.hier = hier
	r.front = pipeline.NewFrontend(&cfg, r.hier, pred)
	r.slots = pipeline.NewSlotAlloc(&cfg)
	r.sb = pipeline.NewStoreBuffer(cfg.StoreBufEntries, r.hier)
	if m.rc == nil {
		m.rc = pipeline.NewRunaheadCache(cfg.RunaheadCache)
	}
	m.rc.Clear()
	m.rc.Evictions = 0
	r.rc = m.rc
	if m.multipass {
		if len(m.resMark) < r.tr.Len() {
			m.resMark = make([]bool, r.tr.Len())
		}
		r.resMark = m.resMark
	}

	meter := pipeline.NewMeter(r.hier, meas, hi)
	meter.ObserveMisses()
	for i := start; i < hi; i++ {
		if i == meas {
			meter.Cross(r.finish, r.res)
		}
		r.step(i)
	}
	if r.mp && r.resLive != 0 {
		// The normal-mode cursor passes every marked index, so the mark
		// array is clean here; clear defensively anyway so a future logic
		// change cannot leak stale results into the next window on this
		// Machine.
		clear(r.resMark)
	}

	return meter.Result(r.finish, r.res)
}

// triggered reports whether a load serviced at level enters advance mode.
func (r *run) triggered(level mem.Level) bool {
	switch r.cfg.Trigger {
	case pipeline.TriggerL2Only:
		return level == mem.LevelMem
	case pipeline.TriggerPrimaryD1, pipeline.TriggerAll:
		return level != mem.LevelL1
	}
	return false
}

// take allocates an issue slot, via the strict cycle walk when the
// equivalence tests ask for it.
func (r *run) take(earliest int64, op isa.Op) int64 {
	if strictCycles {
		return r.slots.TakeStrict(earliest, op)
	}
	return r.slots.Take(earliest, op)
}

// step processes one normal-mode instruction; on a triggering miss it
// executes the whole advance episode inline before returning.
func (r *run) step(i int) {
	in := r.tr.At(i)
	var g pipeline.Gate
	g.Reset(r.front.Avail(in))
	g.Require(r.board.SrcReady(in))
	g.Require(r.lastIssue)
	earliest := g.At()
	predTaken := r.front.Predict(in)
	if in.Op == isa.OpStore {
		earliest = r.sb.FullUntil(earliest)
	}
	t := r.take(earliest, in.Op)
	r.lastIssue = t

	resHit := false
	if r.mp && r.resMark[i] {
		// Multipass: this instruction's result was computed during an
		// advance pass; reuse it to break the dependence.
		r.resMark[i] = false
		r.resLive--
		resHit = true
	}

	var done int64
	switch {
	case resHit && in.Op != isa.OpStore:
		done = t + 1
	case in.Op == isa.OpLoad:
		done = r.load(i, t)
	case in.Op == isa.OpStore:
		r.sb.Insert(t, in.Addr, in.Val)
		done = t + 1
	default:
		done = t + int64(in.Op.ExecLatency())
	}
	r.board.WriteDst(in, done, 0, uint64(i))

	if in.Op.IsCtrl() {
		r.front.Train(in)
		if predTaken != in.Taken {
			r.res.BranchMispredicts++
			r.front.Redirect(t + 1)
		}
	}
	if done > r.finish {
		r.finish = done
	}
}

// load executes a normal-mode load at cycle t and triggers advance mode
// when appropriate. It returns the load's completion cycle.
func (r *run) load(i int, t int64) int64 {
	in := r.tr.At(i)
	pipe := int64(r.cfg.DCachePipe)
	if _, ok := r.sb.Forward(t, in.Addr); ok {
		return t + pipe
	}
	acc := r.hier.Data(t, in.Addr, false)
	done := acc.Done + pipe
	if hit := t + pipe; done < hit {
		done = hit
	}
	if r.triggered(acc.Level) && done > t+pipe+int64(r.cfg.FrontDepth) {
		r.advance(i, t+pipe, done)
	}
	return done
}

// advance runs one advance episode: checkpoint at the triggering load
// (index i, miss detected at detect, data returning at ret), speculate
// past it, then restore.
func (r *run) advance(i int, detect, ret int64) {
	r.res.Advances++
	ckpt := pipeline.TakeCheckpoint(&r.board, i)
	in := r.tr.At(i)
	if in.HasDst() {
		r.board.Poison[in.Dst] = 1
	}
	// The transition discards younger in-flight instructions (§5.1):
	// instruction supply restarts from the miss point.
	r.front.Flush(detect)

	last := detect
	j := i + 1
	diverged := false
	for j < r.end && !diverged {
		adv := r.tr.At(j)
		var g pipeline.Gate
		g.Reset(r.front.Avail(adv))
		poison := r.board.SrcPoison(adv)
		if poison == 0 {
			g.Require(r.board.SrcReady(adv))
		}
		g.Require(last)
		earliest := g.At()
		if r.slots.Peek(earliest, adv.Op) >= ret {
			break // the triggering miss is back; stop advancing
		}
		t := r.take(earliest, adv.Op)
		last = t
		r.res.AdvanceInsts++

		predTaken := r.front.Predict(adv)
		done := t + 1
		switch {
		case poison != 0:
			// Miss-dependent: skipped, poison propagates.
			switch {
			case adv.Op == isa.OpStore && adv.Src1.Valid() && r.board.Poison[adv.Src1] != 0:
				r.res.PoisonAddrObs++ // unknown address: nothing to record
			case adv.Op == isa.OpStore:
				r.rc.Put(adv.Addr, 0, poison)
			case adv.Op.IsCtrl() && predTaken != adv.Taken:
				// A poisoned branch cannot resolve; if the prediction is
				// wrong, everything past it is wrong-path.
				diverged = true
			}
		case adv.Op == isa.OpLoad:
			done = t + int64(r.cfg.DCachePipe)
			if _, lp, hit := r.rc.Get(adv.Addr); hit {
				poison = lp // forward from an advance store
			} else if _, ok := r.sb.Forward(t, adv.Addr); !ok {
				acc := r.hier.Data(t, adv.Addr, false)
				switch {
				case acc.Level == mem.LevelL1:
					// hit: done already set
				case acc.Level == mem.LevelL2 && r.cfg.BlockSecondaryD1:
					// D$-blocking: wait the secondary miss out.
					done = acc.Done + int64(r.cfg.DCachePipe)
					last = acc.Done
				default:
					poison = 1 // D$-nb: poison the output, keep advancing
				}
			}
		case adv.Op == isa.OpStore:
			r.rc.Put(adv.Addr, adv.Val, 0)
		default:
			done = t + int64(adv.Op.ExecLatency())
		}

		if poison == 0 && adv.Op.IsCtrl() {
			r.front.Train(adv)
			if predTaken != adv.Taken {
				r.front.Redirect(t + 1)
			}
		}
		r.board.WriteDst(adv, done, poison, uint64(j))
		if r.mp && poison == 0 && r.resLive < r.cfg.ResultBufEntries && !r.resMark[j] {
			r.resMark[j] = true
			r.resLive++
		}
		j++
	}

	// Miss returned: restore the checkpoint and re-execute from i+1.
	ckpt.Restore(&r.board, ret)
	r.front.Flush(ret)
	r.rc.Clear()
	r.lastIssue = ret
	// Everything advanced past the checkpoint re-executes (Multipass
	// merely re-executes it faster via the result buffer).
	r.res.RallyInsts += uint64(j - (i + 1))
	r.res.RallyPasses++
}
