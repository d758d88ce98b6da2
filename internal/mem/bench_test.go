package mem_test

import (
	"testing"

	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

// BenchmarkHierarchyData replays the data accesses of all 24 benchmark
// traces through a fresh Table 1 hierarchy, one access per cycle, and
// reports the cost per access (the mem.data_ns_per_call layer metric).
func BenchmarkHierarchyData(b *testing.B) {
	var traces []*isa.Trace
	accesses := 0
	for _, name := range workload.AllSPECNames {
		tr := workload.SPEC(name, 20_000).Trace
		traces = append(traces, tr)
		for i := range tr.Insts {
			if tr.Insts[i].Op.IsMem() {
				accesses++
			}
		}
	}
	b.ResetTimer()
	for range b.N {
		for _, tr := range traces {
			h := mem.New(mem.DefaultConfig())
			for i := range tr.Insts {
				if in := &tr.Insts[i]; in.Op.IsMem() {
					h.Data(int64(i), in.Addr, in.Op == isa.OpStore)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
}
