package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"icfp/internal/bpred"
	"icfp/internal/cache"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/isa"
	"icfp/internal/mem"
	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/spec"
	"icfp/internal/store"
)

// models are the machines whose simulations the spans split host time
// by, as spec names them.
var models = []string{spec.ModelICFP, spec.ModelRunahead, spec.ModelInOrder, spec.ModelOOO, spec.ModelMultipass, spec.ModelSLTP}

// metricName turns a spec model name into a metric name segment.
func metricName(model string) string { return strings.ReplaceAll(model, "-", "") }

// serviceLayers are the per-layer metrics only service-mixed exercises;
// the local workloads report them as 0.
var serviceLayers = []struct{ name, unit string }{
	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_p99_ms", "ms"},
	{"serve.submits_per_s", "1/s"},
	{"serve.first_event_ms", "ms"},
	{"serve.dispatched_jobs", "count"},
	{"serve.attached_jobs", "count"},
	{"dist.rounds", "count"},
	{"dist.batches", "count"},
	{"dist.requeues", "count"},
}

// modelLayers splits the spans' simulation host time by model and
// reports the pool's work: one span is one actual simulation.
func modelLayers(rep *report, spans []obs.Span, lookup func(exp.Key) (pipeline.Result, bool), warm int, wall time.Duration, workers int) {
	type tally struct {
		ns, insts int64
		sims      int
	}
	by := map[string]*tally{}
	var busy int64
	for _, s := range spans {
		var m spec.Machine
		var w spec.Workload
		if json.Unmarshal([]byte(s.Machine), &m) != nil || json.Unmarshal([]byte(s.Workload), &w) != nil {
			continue
		}
		t := by[m.Model]
		if t == nil {
			t = &tally{}
			by[m.Model] = t
		}
		t.ns += s.ElapsedNS
		t.sims++
		busy += s.ElapsedNS
		if r, ok := lookup(exp.Key{Machine: s.Machine, Workload: s.Workload}); ok {
			t.insts += coveredInsts(exp.Result{Workload: w, R: r}, warm)
		}
	}
	for _, m := range models {
		t := by[m]
		if t == nil {
			t = &tally{}
		}
		name := metricName(m)
		rep.layer(name+".host_s", "s", float64(t.ns)/1e9)
		rep.layer(name+".sims", "count", float64(t.sims))
		perInst := 0.0
		if t.insts > 0 {
			perInst = float64(t.ns) / float64(t.insts)
		}
		rep.layer(name+".ns_per_inst", "ns", perInst)
	}
	rep.layer("exp.sims", "count", float64(len(spans)))
	rep.layer("exp.pool_busy_share", "ratio", float64(busy)/(float64(wall)*float64(workers)))
}

// counterValue reads a counter from a registry (0 when absent).
func counterValue(reg *obs.Registry, name string) float64 {
	return float64(reg.Counter(name, "").Value())
}

// probeInputs is the workload's own data the layer probes replay.
type probeInputs struct {
	workloads []spec.Workload // distinct base workloads
	suites    []spec.Suite
	cache     *exp.Cache // holds every suite's results
	params    registry.Params
}

// probeLayers times each layer's public functions over the workload's
// data and reports the per-layer metrics. It returns the probe store's
// hit ratio and bytes for callers without a store of their own.
func probeLayers(rep *report, in probeInputs, scratch string) (hitRatio, storeBytes float64, err error) {
	cfg := in.params.Cfg

	// Generation and warm state: timed calls and heap deltas after GC.
	heap0 := heapMB()
	arena := exp.NewArena()
	var gen time.Duration
	traces := make([]*isa.Trace, 0, len(in.workloads))
	for _, w := range in.workloads {
		t := time.Now()
		wk := arena.Get(w)
		gen += time.Since(t)
		traces = append(traces, wk.Trace)
	}
	heap1 := heapMB()
	rep.layer("workload.generate_s", "s", gen.Seconds())
	rep.layer("workload.heap_mb", "MB", heap1-heap0)
	pol := in.params.Sampling.Policy()
	for _, w := range in.workloads {
		wk := arena.Get(w)
		for _, win := range pol.Windows(min(cfg.WarmupInsts, wk.Trace.Len()), wk.Trace.Len()) {
			pipeline.WarmState(wk, cfg.Hier, cfg.Bpred, max(0, win.Start-pol.Ramp))
		}
	}
	rep.layer("pipeline.warmstate_heap_mb", "MB", heapMB()-heap1)
	runtime.KeepAlive(arena) // the warm state hangs off its workloads

	// Trace replays through mem, cache, bpred and functional warming.
	var insts, memOps, branches, hits, mispredicts int
	var tWarm, tData, tInst, tLookup, tBpred time.Duration
	for _, tr := range traces {
		insts += tr.Len()
		t := time.Now()
		pipeline.WarmRange(mem.New(cfg.Hier), bpred.New(cfg.Bpred), tr, 0, tr.Len())
		tWarm += time.Since(t)

		h := mem.New(cfg.Hier)
		t = time.Now()
		for i := range tr.Insts {
			if in := &tr.Insts[i]; in.Op.IsMem() {
				h.Data(int64(i), in.Addr, in.Op == isa.OpStore)
			}
		}
		tData += time.Since(t)
		h = mem.New(cfg.Hier)
		t = time.Now()
		for i := range tr.Insts {
			h.Inst(int64(i), tr.Insts[i].PC)
		}
		tInst += time.Since(t)

		c := cache.New(cfg.Hier.L1D)
		t = time.Now()
		for i := range tr.Insts {
			if in := &tr.Insts[i]; in.Op.IsMem() {
				memOps++
				if c.Lookup(in.Addr, in.Op == isa.OpStore) {
					hits++
				} else {
					c.Insert(in.Addr, in.Op == isa.OpStore)
				}
			}
		}
		tLookup += time.Since(t)

		p := bpred.New(cfg.Bpred)
		t = time.Now()
		for i := range tr.Insts {
			if in := &tr.Insts[i]; in.Op == isa.OpBranch {
				branches++
				if p.Predict(in.PC) != in.Taken {
					mispredicts++
				}
				p.Update(in.PC, in.Taken)
			}
		}
		tBpred += time.Since(t)
	}
	rep.layer("pipeline.warm_ns_per_inst", "ns", perCall(tWarm, insts))
	rep.layer("mem.data_ns_per_call", "ns", perCall(tData, memOps))
	rep.layer("mem.inst_ns_per_call", "ns", perCall(tInst, insts))
	rep.layer("cache.lookup_ns_per_call", "ns", perCall(tLookup, memOps))
	rep.layer("cache.hit_ratio", "ratio", ratio(hits, memOps))
	rep.layer("bpred.predict_update_ns", "ns", perCall(tBpred, branches))
	rep.layer("bpred.mispredict_rate", "ratio", ratio(mispredicts, branches))
	traces = nil
	runtime.GC()

	// spec: decode the suites, canonicalize their jobs.
	var docs [][]byte
	var jobs []spec.Job
	for _, s := range in.suites {
		b, err := s.Marshal()
		if err != nil {
			return 0, 0, err
		}
		docs = append(docs, b)
		jobs = append(jobs, s.Jobs...)
	}
	n, d := repeat(func() {
		for _, b := range docs {
			if _, e := spec.UnmarshalSuite(b); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	rep.layer("spec.unmarshal_us_per_suite", "us", d.Seconds()*1e6/float64(n*len(docs)))
	n, d = repeat(func() {
		for _, j := range jobs {
			j.Machine.Canonical()
			j.Workload.Canonical()
		}
	})
	rep.layer("spec.canonical_ns_per_job", "ns", float64(d.Nanoseconds())/float64(n*len(jobs)))

	// registry: render every suite from the warm cache.
	t := time.Now()
	for _, s := range in.suites {
		if _, err := registry.ReportSuite(io.Discard, s, exp.WithCache(in.cache), exp.Parallelism(1)); err != nil {
			return 0, 0, err
		}
	}
	rep.layer("registry.render_ms", "ms", time.Since(t).Seconds()*1e3/float64(len(in.suites)))

	// store: persist and read back the workload's results.
	st, err := store.Open(filepath.Join(scratch, "probe-store"), store.Options{})
	if err != nil {
		return 0, 0, err
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	recs := in.cache.Snapshot()
	var puts, gets []float64
	for _, r := range recs {
		t := time.Now()
		if err := st.Put(r); err != nil {
			return 0, 0, err
		}
		puts = append(puts, time.Since(t).Seconds()*1e3)
	}
	for _, r := range recs {
		t := time.Now()
		if _, _, err := st.Get(exp.Key{Machine: r.Machine, Workload: r.Workload}); err != nil {
			return 0, 0, err
		}
		gets = append(gets, time.Since(t).Seconds()*1e6)
	}
	rep.layer("store.get_us", "us", median(gets))
	rep.layer("store.put_ms_p50", "ms", median(puts))
	rep.layer("store.put_ms_p99", "ms", percentile(puts, 99))
	h, m := counterValue(reg, "expq_store_hits_total"), counterValue(reg, "expq_store_misses_total")
	return h / max(1, h+m), float64(st.Bytes()), nil
}

// repeat calls f until at least 100ms have passed and returns the call
// count and the time taken.
func repeat(f func()) (int, time.Duration) {
	t := time.Now()
	n := 0
	for n == 0 || time.Since(t) < 100*time.Millisecond {
		f()
		n++
	}
	return n, time.Since(t)
}

// heapMB returns the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuModules are the groups the traced run's CPU profile is split into:
// the repository's modules, encoding/json, the Go runtime, and the rest.
var cpuModules = []string{
	"icfp", "runahead", "inorder", "ooo", "multipass", "sltp",
	"mem", "cache", "bpred", "pipeline", "workload", "exp", "spec",
	"registry", "store", "serve", "dist", "obs", "memimage", "encoding_json", "runtime", "other",
}

// moduleOf maps a profiled function name to its cpuModules group.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	case strings.HasPrefix(pkg, "icfp/internal/"):
		mod := strings.TrimPrefix(pkg, "icfp/internal/")
		if mod == "exp/registry" {
			return "registry"
		}
		mod, _, _ = strings.Cut(mod, "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
	}
	return "other"
}

// cpuShares reports each group's share of the profile's CPU samples,
// attributing every sample to the function it was taken in.
func cpuShares(rep *report, profile []byte) {
	leaves, err := leafFunctions(profile)
	if err != nil {
		rep.notef("cpu profile unreadable: %v", err)
	}
	by := map[string]int64{}
	var total int64
	for fn, v := range leaves {
		by[moduleOf(fn)] += v
		total += v
	}
	for _, m := range cpuModules {
		share := 0.0
		if total > 0 {
			share = float64(by[m]) / float64(total)
		}
		rep.layer("cpu_share."+m, "ratio", share)
	}
}
