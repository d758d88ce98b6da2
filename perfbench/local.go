package main

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"math/rand/v2"
	"path"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// localWorkload is a registry selection run in-process on exp's pool:
// paper-all and sampled-long.
type localWorkload struct {
	names  []string // experiments, in the seeded order given to Report
	params registry.Params
	fig5   string // the Figure 5 experiment paper_gap_pct reads
	// suite, when set, is the one experiment run through ReportSuite
	// instead, its jobs in a seeded order.
	suite *spec.Suite
}

// params returns the Table 1 machine at n timed and warm warmup
// instructions per sample, as cmd/experiments -n/-warm build it.
func params(n, warm int) registry.Params {
	p := registry.Params{Cfg: sim.DefaultConfig(), N: n}
	p.Cfg.WarmupInsts = warm
	return p
}

// seededRand returns the run's generator for stream k: every input
// choice derives from the seed.
func seededRand(seed int64, k uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), k))
}

// paperAll is the -all selection in full mode. The seed orders the
// experiments handed to Report, which orders the pool's job queue; the
// work and every table are the same for any seed.
func paperAll(cfg config) localWorkload {
	names := registry.DefaultNames()
	seededRand(cfg.seed, 1).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return localWorkload{names: names, params: params(cfg.size.paperN, cfg.size.paperWarm), fig5: "fig5"}
}

// fig5sScale is the registry's fig5s length multiplier: its workloads
// run 25*N timed instructions.
const fig5sScale = 25

// sampledLong is fig5s under registry.DefaultSampling, as
// `experiments -fig5s -n N` runs it. The seed orders the benchmarks; each
// benchmark's jobs stay together and in the registry's order, so the
// pool meets the same contention on a workload's warm state as the
// command does. The work and the table are the same for any seed.
func sampledLong(cfg config) (localWorkload, error) {
	p := params(cfg.size.sampledN, cfg.size.sampledWarm)
	p.Sampling = registry.DefaultSampling(p.Cfg.WarmupInsts + fig5sScale*p.N)
	s, err := registry.Describe("fig5s", p)
	if err != nil {
		return localWorkload{}, err
	}
	var groups [][]spec.Job
	for _, j := range s.Jobs {
		if n := len(groups); n > 0 && path.Dir(groups[n-1][0].Name) == path.Dir(j.Name) {
			groups[n-1] = append(groups[n-1], j)
		} else {
			groups = append(groups, []spec.Job{j})
		}
	}
	seededRand(cfg.seed, 2).Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	s.Jobs = slices.Concat(groups...)
	return localWorkload{names: []string{s.Name}, params: p, fig5: s.Name, suite: &s}, nil
}

// suites describes the selection's experiments.
func (lw localWorkload) suites() ([]spec.Suite, error) {
	if lw.suite != nil {
		return []spec.Suite{*lw.suite}, nil
	}
	var out []spec.Suite
	for _, name := range lw.names {
		s, err := registry.Describe(name, lw.params)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// report renders the selection to w, as the user's command does.
func (lw localWorkload) report(w io.Writer, opts ...exp.Option) (map[string]*exp.ResultSet, error) {
	if lw.suite == nil {
		return registry.Report(w, lw.names, lw.params, opts...)
	}
	rs, err := registry.ReportSuite(w, *lw.suite, opts...)
	return map[string]*exp.ResultSet{lw.suite.Name: rs}, err
}

// distinctWorkloads returns the base workloads the suites simulate,
// each once, in first-appearance order: what an exp.Arena generates.
func distinctWorkloads(suites []spec.Suite) []spec.Workload {
	seen := map[string]bool{}
	var out []spec.Workload
	for _, s := range suites {
		for _, j := range s.Jobs {
			b := j.Workload.Base()
			if k := b.Canonical(); !seen[k] {
				seen[k] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// generate fills a fresh arena with the workloads on n goroutines.
func generate(wls []spec.Workload, n int) *exp.Arena {
	a := exp.NewArena()
	next := make(chan spec.Workload)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range next {
				a.Get(w)
			}
		}()
	}
	for _, w := range wls {
		next <- w
	}
	close(next)
	wg.Wait()
	return a
}

// pass is one set-up plus one Report of the selection.
type pass struct {
	setup, wall, cpu time.Duration
	out              []byte
	sets             map[string]*exp.ResultSet
	cache            *exp.Cache
	insts            int64 // trace instructions the distinct simulations covered

	// Traced passes only.
	spans     *obs.SpanLog
	reg       *obs.Registry
	arenaGens int
	profile   []byte
}

// run makes one pass: set-up generates every workload into a fresh
// arena; the timed part is Report over that arena with a fresh cache.
func (lw localWorkload) run(cfg config, wls []spec.Workload, traced bool) (*pass, error) {
	p := &pass{cache: exp.NewCache()}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	arena := generate(wls, cfg.workers)
	p.setup = time.Since(t0)
	// Collect generation's garbage, so every timed report starts from
	// the same heap: the arena and nothing else.
	runtime.GC()

	opts := []exp.Option{exp.WithCache(p.cache), exp.WithArena(arena), exp.Parallelism(cfg.workers)}
	if traced {
		p.spans, p.reg = obs.NewSpanLog(), obs.NewRegistry()
		p.cache.Instrument(p.reg)
		opts = append(opts, exp.WithSpans(p.spans))
	}
	var out bytes.Buffer
	c0, t1 := cpuTime(), time.Now()
	sets, err := lw.report(&out, opts...)
	p.wall, p.cpu = time.Since(t1), cpuTime()-c0
	if traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
		p.arenaGens = arena.Generations()
	}
	if err != nil {
		return nil, err
	}
	p.out, p.sets = cfg.output(out.Bytes()), sets
	seen := map[exp.Key]bool{}
	for _, rs := range sets {
		for _, r := range rs.Results {
			k := exp.Job{Machine: r.Machine, Workload: r.Workload}.Key()
			if !seen[k] {
				seen[k] = true
				p.insts += coveredInsts(r, lw.params.Cfg.WarmupInsts)
			}
		}
	}
	return p, nil
}

// coveredInsts counts the trace instructions one simulation covered
// past its warmup: all of them for a full run, and for a sampled run
// the detailed windows plus the functionally warmed gaps between them.
func coveredInsts(r exp.Result, warm int) int64 {
	if r.R.SampleIntervals > 0 && r.Workload.N > warm {
		return int64(r.Workload.N - warm)
	}
	return r.R.Insts
}

// runLocal measures passes until the time is up and reports them.
func runLocal(cfg config, lw localWorkload, scratch string, rep *report, chk *checks) error {
	suites, err := lw.suites()
	if err != nil {
		return err
	}
	wls := distinctWorkloads(suites)
	jobs := 0
	for _, s := range suites {
		jobs += len(s.Jobs)
	}
	rep.notef("selection %v  n %d  warm %d  sampling %+v", lw.names, lw.params.N, lw.params.Cfg.WarmupInsts, lw.params.Sampling)
	rep.notef("%d jobs over %d distinct workloads", jobs, len(wls))

	var walls, cpus, setups, rates, tracedWalls []float64
	var first, tp *pass
	var fig5 *exp.ResultSet
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		p, err := lw.run(cfg, wls, traced)
		if err != nil {
			return err
		}
		var all []exp.Result
		for _, rs := range p.sets {
			all = append(all, rs.Results...)
		}
		chk.check(allFinite(all), "pass %d: a pipeline.Result field is not finite", i)
		if first == nil {
			first, fig5 = p, p.sets[lw.fig5]
		} else {
			chk.check(bytes.Equal(p.out, first.out), "pass %d: report digest %x differs from pass 0's %x", i, digest(p.out), digest(first.out))
		}
		setups = append(setups, p.setup.Seconds())
		if traced {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
			if tp == nil {
				tp = p
			}
		} else {
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
			rates = append(rates, float64(p.insts)/1e6/p.wall.Seconds())
		}
		// Collect this pass's arena before the next set-up generates
		// its own, so peak RSS is one pass's.
		runtime.GC()
		// At least two untraced passes, so the digests can be compared,
		// and one traced pass when tracing; then stop once another pass
		// would overrun the time.
		typical := time.Duration((median(walls) + median(setups)) * float64(time.Second))
		if len(walls) >= 2 && (!cfg.trace || len(tracedWalls) > 0) && time.Until(deadline) < typical {
			break
		}
	}

	rep.notef("report digest %x (%d bytes) over %d passes", digest(first.out), len(first.out), len(setups))
	gap, geos := paperGap(fig5, lw.fig5)
	rep.notef("Figure 5 geomeans (Runahead, Multipass, SLTP, iCFP) %.1f%% vs paper 11/11/9/16", geos)
	if lw.params.Sampling != nil {
		rep.notef("ci95_pct %.4f pct (mean 95%% CI half-width of the speedup cells)", meanCI95(fig5, lw.fig5))
	}
	if !cfg.trace {
		rep.timing("wall_s", "s", walls)
		rep.timing("cpu_s", "s", cpus)
		rep.endToEnd("sim_minst_per_s", "Minst/s", median(rates))
		rep.endToEnd("peak_rss_mb", "MB", peakRSSMB())
		rep.timing("setup_s", "s", setups)
		rep.endToEnd("paper_gap_pct", "pp", gap)
		return nil
	}
	rep.layer("pipeline.sample_ci95_pct", "pct", meanCI95(fig5, lw.fig5))
	rep.layer("obs.trace_overhead_pct", "pct", 100*(median(tracedWalls)/median(walls)-1))
	// Read the memo counters before the span lookups below add to them.
	hits, misses := counterValue(tp.reg, "exp_cache_hits_total"), counterValue(tp.reg, "exp_cache_misses_total")
	modelLayers(rep, tp.spans.Spans(), tp.cache.Lookup, lw.params.Cfg.WarmupInsts, tp.wall, cfg.workers)
	rep.layer("exp.jobs", "count", float64(jobs))
	rep.layer("exp.memo_hit_ratio", "ratio", hits/(hits+misses))
	rep.layer("exp.arena_generations", "count", float64(tp.arenaGens))
	rep.layer("exp.pool_cpu_share", "ratio", tp.cpu.Seconds()/(tp.wall.Seconds()*float64(cfg.workers)))
	cpuShares(rep, tp.profile)
	in := probeInputs{workloads: wls, suites: suites, cache: tp.cache, params: lw.params}
	hitRatio, storeBytes, err := probeLayers(rep, in, scratch)
	if err != nil {
		return err
	}
	rep.layer("store.hit_ratio", "ratio", hitRatio)
	rep.layer("store.bytes", "bytes", storeBytes)
	// This workload runs no service and no fleet.
	for _, name := range serviceLayers {
		rep.layer(name.name, name.unit, 0)
	}
	return nil
}

// digest is the report digest the passes are compared by.
func digest(b []byte) []byte {
	d := sha256.Sum256(b)
	return d[:8]
}

// paperModels are the Figure 5 machines, in the paper's order, and the
// paper's SPEC-wide geomean speedups for them.
var (
	paperModels = []sim.Model{sim.Runahead, sim.Multipass, sim.SLTP, sim.ICFP}
	paperGeos   = []float64{11, 11, 9, 16}
)

// paperGap returns the mean absolute gap, in percentage points, between
// the four Figure 5 SPEC geomeans of the experiment's result set and the
// paper's, and the geomeans.
func paperGap(rs *exp.ResultSet, experiment string) (float64, []float64) {
	var gap float64
	geos := make([]float64, len(paperModels))
	for i, m := range paperModels {
		var pairs [][2]string
		for _, name := range workload.AllSPECNames {
			cell := experiment + "/" + name + "/"
			pairs = append(pairs, [2]string{cell + m.String(), cell + "base"})
		}
		geos[i] = rs.GeoMeanSpeedup(pairs)
		gap += math.Abs(geos[i] - paperGeos[i])
	}
	return gap / float64(len(paperModels)), geos
}

// meanCI95 is the mean 95% CI half-width, in percentage points, of the
// experiment's Figure 5 speedup cells (0 for full runs).
func meanCI95(rs *exp.ResultSet, experiment string) float64 {
	var sum float64
	for _, m := range paperModels {
		for _, name := range workload.AllSPECNames {
			cell := experiment + "/" + name + "/"
			_, ci := rs.SpeedupCI95(cell+m.String(), cell+"base")
			sum += ci
		}
	}
	return sum / float64(len(paperModels)*len(workload.AllSPECNames))
}

// output applies the corruption hook, if any, to an output about to be
// checked.
func (cfg config) output(b []byte) []byte {
	if cfg.corrupt != nil {
		return cfg.corrupt(b)
	}
	return b
}
