package pipeline

import (
	"testing"

	"icfp/internal/bpred"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

// BenchmarkWarmRange functionally warms a fresh Table 1 hierarchy and
// predictor over each of the 24 benchmark traces and reports the cost
// per instruction (the pipeline.warm_ns_per_inst layer metric).
func BenchmarkWarmRange(b *testing.B) {
	var traces []*isa.Trace
	insts := 0
	for _, name := range workload.AllSPECNames {
		tr := workload.SPEC(name, 20_000).Trace
		traces = append(traces, tr)
		insts += tr.Len()
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for range b.N {
		for _, tr := range traces {
			WarmRange(mem.New(cfg.Hier), bpred.New(cfg.Bpred), tr, 0, tr.Len())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
}
