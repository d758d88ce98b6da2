// Package sltp implements SLTP, the Simple Latency Tolerant Processor
// (Nekkalapu et al., ICCD'08), as characterized by the iCFP paper (§4):
// non-blocking advance under L2 misses with commit of miss-independent
// instructions, but *blocking single-pass rallies* and an SRL (store redo
// log) based data memory system.
//
// Advance stores write the SRL and, speculatively, the data cache (which
// gives free store-to-load forwarding). When the triggering miss returns,
// the speculatively written lines are flushed, and the rally re-executes
// the miss slice interleaved in program order with draining the SRL to
// the cache — stalling on any miss it encounters and keeping the tail
// stalled until both finish. Store-to-load poison propagation is
// idealized (Table 1: "idealized memory dependence prediction and load
// queue").
package sltp

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

// Machine is an SLTP pipeline.
//
// A Machine may be reused for sequential Run calls — episode scratch (the
// slice, SRL, and advance-store forwarding table) is retained across
// calls — but concurrent Run calls on one Machine race on that scratch.
type Machine struct {
	cfg pipeline.Config

	// Run scratch, reused across Run calls.
	slice []sliceEntry
	srl   []srlEntry
	spec  map[uint64]specVal
}

// New returns an SLTP machine. Its paper configuration advances under L2
// misses only and blocks on data-cache misses during advance.
func New(cfg pipeline.Config) *Machine {
	cfg.Trigger = pipeline.TriggerL2Only
	return &Machine{cfg: cfg}
}

type srcKind uint8

const (
	srcNone srcKind = iota
	srcCaptured
	srcSlice
)

type sliceSrc struct {
	kind srcKind
	prod int // index into the slice
}

type sliceEntry struct {
	idx    int
	seq    uint64
	srcs   [2]sliceSrc
	isCtrl bool
	predOK bool
	done   int64
	ran    bool
}

type srlEntry struct {
	addr    uint64
	val     uint64
	poison  bool
	seq     uint64
	prodIdx int // slice index of the producing (data) instruction, -1 if clean
}

type specVal struct {
	val    uint64
	poison bool
	prod   int
}

// strictCycles (test-only) forces slot allocation to step one cycle at a
// time (SlotAlloc.TakeStrict) instead of jumping straight to the next
// fitting cycle. Simulated behaviour must be identical either way — the
// equivalence tests in strict_test.go pin that.
var strictCycles = false

type run struct {
	cfg   *pipeline.Config
	tr    *isa.Trace
	end   int // window end (exclusive trace index); tr.Len() for full runs
	hier  *mem.Hierarchy
	front *pipeline.Frontend
	slots *pipeline.SlotAlloc
	sb    *pipeline.StoreBuffer
	board pipeline.Scoreboard

	slice      []sliceEntry
	srl        []srlEntry
	spec       map[uint64]specVal // advance-store forwarding (idealized)
	lastWriter [isa.NumRegs]int

	ckpt    pipeline.Checkpoint
	seqCtr  uint64
	primRet int64

	lastIssue int64
	finish    int64

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
// pipeline.Meter. The crossing is taken the first time the step loop
// reaches meas: step can both jump forward past an episode and rewind
// on a squash.
func (m *Machine) runWindow(w *workload.Workload, hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, hi int) pipeline.Result {
	cfg := m.cfg
	if m.slice == nil {
		m.slice = make([]sliceEntry, 0, cfg.SliceEntries)
		m.srl = make([]srlEntry, 0, cfg.SRLEntries)
		m.spec = make(map[uint64]specVal, cfg.SRLEntries)
	}
	r := &run{cfg: &cfg, tr: w.Trace, end: hi, slice: m.slice[:0], srl: m.srl[:0], spec: m.spec}
	clear(r.spec)
	defer func() {
		// Episode scratch may have grown (the SRL is unbounded by design);
		// hand the larger backing back to the Machine for the next window.
		m.slice, m.srl = r.slice[:0], r.srl[:0]
	}()
	r.hier = hier
	r.front = pipeline.NewFrontend(&cfg, r.hier, pred)
	r.slots = pipeline.NewSlotAlloc(&cfg)
	r.sb = pipeline.NewStoreBuffer(cfg.StoreBufEntries, r.hier)

	meter := pipeline.NewMeter(r.hier, meas, hi)
	meter.ObserveMisses()
	for i := start; i < hi; {
		if !meter.Crossed() && i >= meas {
			meter.Cross(r.finish, r.res)
		}
		i = r.step(i)
	}

	return meter.Result(r.finish, r.res)
}

// take allocates an issue slot, via the strict cycle walk when the
// equivalence tests ask for it.
func (r *run) take(earliest int64, op isa.Op) int64 {
	if strictCycles {
		return r.slots.TakeStrict(earliest, op)
	}
	return r.slots.Take(earliest, op)
}

// step processes the instruction at i in normal mode and returns the next
// index (which rewinds on a squash).
func (r *run) step(i int) int {
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

	var done int64
	switch in.Op {
	case isa.OpLoad:
		if _, ok := r.sb.Forward(t, in.Addr); ok {
			done = t + int64(r.cfg.DCachePipe)
			break
		}
		acc := r.hier.Data(t, in.Addr, false)
		done = acc.Done + int64(r.cfg.DCachePipe)
		if h := t + int64(r.cfg.DCachePipe); done < h {
			done = h
		}
		if acc.Level == mem.LevelMem && acc.Done > t+20 {
			// Trigger: enter advance mode under this L2 miss.
			return r.advance(i, t, acc.Done)
		}
	case isa.OpStore:
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
	return i + 1
}

func (r *run) nextSeq() uint64 {
	r.seqCtr++
	return r.seqCtr
}

// captureSrcs records each input as a captured side value or a slice-
// internal dependence.
func (r *run) captureSrcs(e *sliceEntry, in *isa.Inst) {
	srcs := [2]isa.Reg{in.Src1, in.Src2}
	for k, s := range srcs {
		switch {
		case !s.Valid():
			e.srcs[k] = sliceSrc{kind: srcNone}
		case r.board.Poison[s] != 0:
			e.srcs[k] = sliceSrc{kind: srcSlice, prod: r.lastWriter[s]}
		default:
			e.srcs[k] = sliceSrc{kind: srcCaptured}
		}
	}
}

// appendSlice diverts a miss-dependent instruction into the slice buffer,
// poisoning its destination. It reports false when the buffer is full.
func (r *run) appendSlice(in *isa.Inst, idx int, predOK bool) bool {
	if len(r.slice) >= r.cfg.SliceEntries {
		r.res.SliceOverflows++
		return false
	}
	e := sliceEntry{idx: idx, seq: r.nextSeq(), isCtrl: in.Op.IsCtrl(), predOK: predOK}
	r.captureSrcs(&e, in)
	r.slice = append(r.slice, e)
	r.board.WriteDst(in, 0, 1, e.seq)
	if in.HasDst() {
		r.lastWriter[in.Dst] = len(r.slice) - 1
	}
	r.res.AdvanceInsts++
	return true
}

// advance runs an SLTP advance episode starting at the triggering load
// (index i, issued at t, miss returning at ret), followed by the blocking
// rally. It returns the index at which normal execution resumes.
func (r *run) advance(i int, t, ret int64) int {
	r.res.Advances++
	r.ckpt = pipeline.TakeCheckpoint(&r.board, i)
	for k := range r.board.Seq {
		r.board.Seq[k] = 0
	}
	r.seqCtr = 0
	r.slice = r.slice[:0]
	r.srl = r.srl[:0]
	clear(r.spec)
	for k := range r.lastWriter {
		r.lastWriter[k] = -1
	}
	r.primRet = ret

	pipe := int64(r.cfg.DCachePipe)
	r.appendSlice(r.tr.At(i), i, true) // the triggering load

	last := t + pipe
	j := i + 1
	halted := false
	for j < r.end && !halted {
		adv := r.tr.At(j)
		var g pipeline.Gate
		g.Reset(r.front.Avail(adv))
		poisoned := r.board.SrcPoison(adv) != 0
		if !poisoned {
			g.Require(r.board.SrcReady(adv))
		}
		g.Require(last)
		earliest := g.At()
		if r.slots.Peek(earliest, adv.Op) >= ret {
			break // the triggering miss is back: rally
		}
		tt := r.take(earliest, adv.Op)
		last = tt
		predTaken := r.front.Predict(adv)

		if poisoned {
			switch {
			case adv.Op == isa.OpStore && adv.Src1.Valid() && r.board.Poison[adv.Src1] != 0:
				// Poisoned store address: the SRL cannot hold it usefully;
				// advance halts until the rally (the store retries after).
				r.res.PoisonAddrObs++
				halted = true
			case adv.Op == isa.OpStore:
				r.srl = append(r.srl, srlEntry{
					addr: adv.Addr, poison: true,
					seq: r.nextSeq(), prodIdx: r.lastWriter[adv.Src2],
				})
				r.spec[adv.Addr] = specVal{poison: true, prod: r.lastWriter[adv.Src2]}
				r.res.AdvanceInsts++
				j++
			default:
				if r.appendSlice(adv, j, !adv.Op.IsCtrl() || predTaken == adv.Taken) {
					j++
					if adv.Op.IsCtrl() && predTaken != adv.Taken {
						halted = true // diverged; the rally will squash here
					}
				} else {
					halted = true
				}
			}
			continue
		}

		// Miss-independent: execute and commit.
		done := tt + 1
		switch adv.Op {
		case isa.OpLoad:
			if sv, ok := r.spec[adv.Addr]; ok {
				if sv.poison {
					// Idealized memory dependence prediction: the load is
					// recognized as miss-dependent via the poisoned store.
					if len(r.slice) >= r.cfg.SliceEntries {
						r.res.SliceOverflows++
						halted = true
						continue
					}
					e := sliceEntry{idx: j, seq: r.nextSeq()}
					e.srcs[0] = sliceSrc{kind: srcSlice, prod: sv.prod}
					r.slice = append(r.slice, e)
					r.board.WriteDst(adv, 0, 1, e.seq)
					if adv.HasDst() {
						r.lastWriter[adv.Dst] = len(r.slice) - 1
					}
					r.res.AdvanceInsts++
					j++
					continue
				}
				done = tt + pipe
			} else if _, ok := r.sb.Forward(tt, adv.Addr); ok {
				done = tt + pipe
			} else {
				acc := r.hier.Data(tt, adv.Addr, false)
				switch {
				case acc.Done <= tt+pipe:
					done = tt + pipe
				case acc.Level == mem.LevelMem:
					// Secondary L2 miss: poison and keep advancing.
					if r.appendSlice(adv, j, true) {
						j++
					} else {
						halted = true
					}
					continue
				default:
					// Data-cache miss: SLTP blocks advance on these.
					done = acc.Done + pipe
					last = acc.Done
				}
			}
		case isa.OpStore:
			r.srl = append(r.srl, srlEntry{addr: adv.Addr, val: adv.Val, seq: r.nextSeq(), prodIdx: -1})
			r.spec[adv.Addr] = specVal{val: adv.Val, prod: -1}
			r.hier.DCache.InsertSpeculative(adv.Addr)
		default:
			done = tt + int64(adv.Op.ExecLatency())
		}
		r.board.WriteDst(adv, done, 0, r.nextSeq())
		if adv.Op.IsCtrl() {
			r.front.Train(adv)
			if predTaken != adv.Taken {
				r.res.BranchMispredicts++
				r.front.Redirect(tt + 1)
			}
		}
		if done > r.finish {
			r.finish = done
		}
		r.res.AdvanceInsts++
		j++
	}

	return r.rally(j, ret)
}

// rally performs the single blocking rally pass: flush speculative cache
// lines, then re-execute the slice interleaved with draining the SRL in
// program order, stalling on every miss. The tail stays stalled
// throughout. It returns the resume index (the checkpoint on a squash).
func (r *run) rally(resume int, ret int64) int {
	r.res.RallyPasses++
	r.hier.DCache.FlushSpeculative()

	clock := ret
	pipe := int64(r.cfg.DCachePipe)
	si, gi := 0, 0
	for si < len(r.slice) || gi < len(r.srl) {
		// Program-order merge of slice re-execution and SRL drain.
		doSlice := si < len(r.slice) &&
			(gi >= len(r.srl) || r.slice[si].seq < r.srl[gi].seq)
		clock++
		if !doSlice {
			s := &r.srl[gi]
			r.hier.Data(clock, s.addr, true)
			gi++
			continue
		}
		e := &r.slice[si]
		r.res.RallyInsts++
		in := r.tr.At(e.idx)
		for _, src := range e.srcs {
			if src.kind == srcSlice && src.prod >= 0 {
				if d := r.slice[src.prod].done; d > clock {
					clock = d // wait for the producer (blocking rally)
				}
			}
		}
		done := clock + 1
		switch {
		case in.Op == isa.OpLoad:
			if sv, ok := r.spec[in.Addr]; ok && sv.prod >= 0 {
				done = clock + pipe // forwarded from a rallied store
			} else {
				acc := r.hier.Data(clock, in.Addr, false)
				done = acc.Done + pipe
				if h := clock + pipe; done < h {
					done = h
				}
				if acc.Done > clock {
					clock = acc.Done // blocking: wait the miss out
				}
			}
		case e.isCtrl:
			r.front.Train(in)
			if !e.predOK {
				return r.squash(e.idx, clock)
			}
		case in.Op == isa.OpStore:
			// Poisoned-data store from the slice: written via its SRL slot.
		default:
			done = clock + int64(in.Op.ExecLatency())
		}
		e.done = done
		e.ran = true
		if in.HasDst() && r.board.Seq[in.Dst] == e.seq {
			r.board.Ready[in.Dst] = done
			r.board.Poison[in.Dst] = 0
		}
		if done > r.finish {
			r.finish = done
		}
		si++
	}

	// Rally complete: reconcile and resume the tail.
	r.board.ClearPoison()
	r.front.Stall(clock)
	r.lastIssue = clock
	if clock > r.finish {
		r.finish = clock
	}
	return resume
}

// squash recovers from a mispredicted poisoned branch found during the
// rally: restore the checkpoint and re-execute from there.
func (r *run) squash(branchIdx int, clock int64) int {
	r.res.Squashes++
	r.res.BranchMispredicts++
	r.ckpt.Restore(&r.board, clock+int64(r.cfg.FrontDepth))
	r.hier.DCache.FlushSpeculative()
	r.front.Flush(clock)
	r.lastIssue = clock
	_ = branchIdx
	return r.ckpt.Index
}
