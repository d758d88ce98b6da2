package cache_test

import (
	"testing"

	"icfp/internal/cache"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

// BenchmarkCacheLookup replays the data accesses of all 24 benchmark
// traces through a fresh Table 1 L1 data cache, filling on every miss,
// and reports the cost per access (the cache.lookup_ns_per_call layer
// metric).
func BenchmarkCacheLookup(b *testing.B) {
	var addrs []uint64
	var writes []bool
	for _, name := range workload.AllSPECNames {
		for _, in := range workload.SPEC(name, 20_000).Trace.Insts {
			if in.Op.IsMem() {
				addrs = append(addrs, in.Addr)
				writes = append(writes, in.Op == isa.OpStore)
			}
		}
	}
	cfg := mem.DefaultConfig().L1D
	b.ResetTimer()
	for range b.N {
		c := cache.New(cfg)
		for i, a := range addrs {
			if !c.Lookup(a, writes[i]) {
				c.Insert(a, writes[i])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/access")
}
