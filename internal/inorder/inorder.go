// Package inorder implements the baseline machine of the paper's
// evaluation: a 2-way superscalar, 10-stage, stall-on-use in-order
// pipeline. It does not stall on a cache miss itself — only on the first
// instruction that consumes a missing value (or on structural hazards),
// exactly the behaviour the paper's Figure 1 sketches with thick lines.
package inorder

import (
	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/pipeline"
	"icfp/internal/workload"
)

// Machine is a baseline in-order pipeline.
type Machine struct {
	cfg pipeline.Config
}

// New returns a baseline machine with the given configuration.
func New(cfg pipeline.Config) *Machine { return &Machine{cfg: cfg} }

// Run simulates the workload to completion and reports the result.
func (m *Machine) Run(w *workload.Workload) pipeline.Result {
	return m.RunSampled(w, pipeline.SamplePolicy{})
}

// RunSampled simulates the workload under the given sampling policy: the
// detailed pipeline runs only inside the policy's measurement windows,
// with functional warming in between. The zero policy is a full run.
func (m *Machine) RunSampled(w *workload.Workload, pol pipeline.SamplePolicy) pipeline.Result {
	return pipeline.RunWindowed(w, &m.cfg, pol,
		func(hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, hi int) pipeline.Result {
			return m.runWindow(w, hier, pred, start, meas, hi)
		})
}

// runWindow runs the detailed pipeline over trace indexes [start, hi)
// starting from the given warmed hierarchy and predictor at cycle 0,
// measuring [meas, hi) with a pipeline.Meter.
func (m *Machine) runWindow(w *workload.Workload, hier *mem.Hierarchy, pred *bpred.Predictor, start, meas, hi int) pipeline.Result {
	cfg := m.cfg
	front := pipeline.NewFrontend(&cfg, hier, pred)
	slots := pipeline.NewSlotAlloc(&cfg)
	sb := pipeline.NewStoreBuffer(cfg.StoreBufEntries, hier)
	var board pipeline.Scoreboard
	meter := pipeline.NewMeter(hier, meas, hi)
	meter.ObserveMisses()

	tr := w.Trace

	var finish int64
	var lastIssue int64
	var mispredicts uint64

	for i := start; i < hi; i++ {
		if i == meas {
			meter.Cross(finish, pipeline.Result{BranchMispredicts: mispredicts})
		}
		in := tr.At(i)
		earliest := front.Avail(in)
		if r := board.SrcReady(in); r > earliest {
			earliest = r
		}
		if earliest < lastIssue {
			earliest = lastIssue // in-order issue
		}
		predTaken := front.Predict(in)

		if in.Op == isa.OpStore {
			earliest = sb.FullUntil(earliest)
		}
		t := slots.Take(earliest, in.Op)
		lastIssue = t

		var done int64
		switch in.Op {
		case isa.OpLoad:
			if _, ok := sb.Forward(t, in.Addr); ok {
				done = t + int64(cfg.DCachePipe)
			} else {
				r := hier.Data(t, in.Addr, false)
				done = r.Done + int64(cfg.DCachePipe)
				if hit := t + int64(cfg.DCachePipe); done < hit {
					done = hit
				}
			}
		case isa.OpStore:
			sb.Insert(t, in.Addr, in.Val)
			done = t + 1
		default:
			done = t + int64(in.Op.ExecLatency())
		}

		board.WriteDst(in, done, 0, uint64(i))

		if in.Op.IsCtrl() {
			front.Train(in)
			if predTaken != in.Taken {
				mispredicts++
				front.Redirect(t + 1)
			}
		}
		if done > finish {
			finish = done
		}
	}

	return meter.Result(finish, pipeline.Result{BranchMispredicts: mispredicts})
}
