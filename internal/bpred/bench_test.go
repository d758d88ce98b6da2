package bpred

import (
	"testing"

	"icfp/internal/isa"
	"icfp/internal/workload"
)

// BenchmarkPredictUpdate replays the conditional branches of all 24
// benchmark traces through a fresh default predictor, Predict then
// Update per branch, and reports the cost per branch (the
// bpred.predict_update_ns layer metric).
func BenchmarkPredictUpdate(b *testing.B) {
	var pcs []uint64
	var taken []bool
	for _, name := range workload.AllSPECNames {
		for _, in := range workload.SPEC(name, 20_000).Trace.Insts {
			if in.Op == isa.OpBranch {
				pcs = append(pcs, in.PC)
				taken = append(taken, in.Taken)
			}
		}
	}
	b.ResetTimer()
	for range b.N {
		p := New(DefaultConfig())
		for i, pc := range pcs {
			p.Predict(pc)
			p.Update(pc, taken[i])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pcs)), "ns/branch")
}
