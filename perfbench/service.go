package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/pipeline"
	"icfp/internal/serve"
	"icfp/internal/spec"
	"icfp/internal/store"
	"icfp/internal/workload"
)

// Submission kinds of the service-mixed deck.
const (
	kindWarm   = iota // a registry suite: store reads, no simulation
	kindFuzz          // a registry-shaped fuzz suite with fresh seeds
	kindREADME        // the README's literal fuzz shape
)

// deckBlock is one block of the seeded submission deck: 45 warm, 4 fuzz
// and 1 README-shape submissions (90/8/2%), shuffled per block.
const deckBlock = 50

// submission is one entry of the deck.
type submission struct {
	kind  int
	name  string // suite label for reports
	doc   []byte // the suite document submitted
	suite spec.Suite
	want  []byte // warm only: the local render the response must match
}

// fleet is nproc in-process dist workers that join the service over
// dist.Pipe the way `expd join` dials in: register, serve one
// coordinator round, redial.
type fleet struct {
	join chan dist.Worker
	stop chan struct{}
	wg   sync.WaitGroup
}

func startFleet(n int) *fleet {
	f := &fleet{join: make(chan dist.Worker), stop: make(chan struct{})}
	for i := range n {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			name := fmt.Sprintf("pipe-%d", i)
			for {
				coord, worker := dist.Pipe()
				registered := make(chan error, 1)
				go func() { registered <- dist.Register(worker, name) }()
				w, err := dist.AcceptWorker(coord, name)
				if rerr := <-registered; rerr != nil || err != nil {
					coord.Close()
					worker.Close()
					return
				}
				select {
				case f.join <- w:
				case <-f.stop:
					coord.Close()
					worker.Close()
					return
				}
				// A worker error (a frame it cannot encode) ends this
				// connection only; the coordinator requeues its batch.
				dist.Serve(worker)
				worker.Close()
			}
		}()
	}
	return f
}

// close stops the fleet between rounds and waits for every worker.
func (f *fleet) close() {
	close(f.stop)
	f.wg.Wait()
}

// service is one in-process expq: a serve.Server over a fresh store,
// backed by the fleet, fronted by httptest.
type service struct {
	dir   string
	st    *store.Store
	reg   *obs.Registry
	fleet *fleet
	http  *httptest.Server
}

func startService(dir string, workers int, spans *obs.SpanLog) (*service, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	fl := startFleet(workers)
	srv, err := serve.New(serve.Config{
		Store:          st,
		Join:           fl.join,
		DistOpts:       dist.Options{Spans: spans},
		WorkerParallel: 1,
		Metrics:        reg,
	})
	if err != nil {
		fl.close()
		return nil, err
	}
	return &service{dir: dir, st: st, reg: reg, fleet: fl, http: httptest.NewServer(srv.Handler())}, nil
}

func (s *service) close() {
	s.http.Close()
	s.fleet.close()
	os.RemoveAll(s.dir)
}

// client returns a fresh serve.Client for the service.
func (s *service) client() *serve.Client {
	c, err := serve.NewClient(s.http.URL, "", "", "")
	if err != nil {
		panic(err) // no TLS options: NewClient cannot fail
	}
	return c
}

// coldFill submits every registry suite once, filling the store; each
// response must match its local render.
func (s *service) coldFill(warm []*submission, chk *checks, cfg config) error {
	c := s.client()
	for _, sub := range warm {
		out, err := c.Submit(sub.doc, nil)
		if err != nil {
			return fmt.Errorf("cold fill %s: %w", sub.name, err)
		}
		chk.check(bytes.Equal(cfg.output(out), sub.want), "cold-fill response for %s differs from its local render", sub.name)
	}
	return nil
}

// warmSuites returns the registry suites service-mixed resubmits, each
// with its local render from the golden run's warm cache, and the fig5
// suite's result set.
func warmSuites(cfg config, golden *exp.Cache) ([]*submission, *exp.ResultSet, error) {
	p := params(goldenN, goldenWarm)
	var subs []*submission
	var fig5 *exp.ResultSet
	for _, name := range registry.DefaultNames() {
		s, err := registry.Describe(name, p)
		if err != nil {
			return nil, nil, err
		}
		if len(s.Jobs) == 0 {
			continue // analytic experiments (area) have nothing to serve
		}
		doc, err := s.Marshal()
		if err != nil {
			return nil, nil, err
		}
		var want bytes.Buffer
		rs, err := registry.ReportSuite(&want, s, exp.WithCache(golden), exp.Parallelism(cfg.workers))
		if err != nil {
			return nil, nil, err
		}
		if name == "fig5" {
			fig5 = rs
		}
		subs = append(subs, &submission{kind: kindWarm, name: name, doc: doc, suite: s, want: want.Bytes()})
	}
	return subs, fig5, nil
}

// fuzzMembers is how many corpus members one fuzz submission carries.
const fuzzMembers = 4

// fuzzSuite is a registry-shaped fuzz suite for deck index i: the jobs
// the registry's fuzz experiment runs for a seeded choice of corpus
// members (in-order base plus every compared model), each member given
// a fresh seed, rendered as a speedup table.
func fuzzSuite(cfg config, base spec.Suite, i int) (*submission, error) {
	rng := seededRand(cfg.seed, 1000+uint64(i))
	var members []string
	for _, j := range base.Jobs {
		if m := path.Dir(j.Name); len(members) == 0 || members[len(members)-1] != m {
			members = append(members, m)
		}
	}
	fresh := map[string]int64{}
	for _, k := range rng.Perm(len(members))[:fuzzMembers] {
		fresh[members[k]] = rng.Int64()
	}
	s := spec.Suite{Name: fmt.Sprintf("fuzz-%d", i), N: base.N, Warm: base.Warm, Render: &spec.Render{Kind: spec.RenderSpeedup}}
	for _, j := range base.Jobs {
		seed, ok := fresh[path.Dir(j.Name)]
		if !ok {
			continue
		}
		f := *j.Workload.Fuzz
		f.Seed = seed
		j.Workload.Fuzz = &f
		s.Jobs = append(s.Jobs, j)
	}
	doc, err := s.Marshal()
	if err != nil {
		return nil, err
	}
	return &submission{kind: kindFuzz, name: s.Name, doc: doc, suite: s}, nil
}

// readmeN is the n of the README's literal fuzz shape.
const readmeN = 60_000

// readmeSuite is the README's literal fuzz shape on in-order and iCFP.
func readmeSuite(cfg config, i int) (*submission, error) {
	seed := seededRand(cfg.seed, 1000+uint64(i)).Int64()
	doc := fmt.Sprintf(`{"name":"readme-%d","render":{"kind":"speedup"},"jobs":[`+
		`{"name":"readme/base","machine":{"model":"in-order"},"workload":{"fuzz":{"seed":%d,"sb_pressure":85},"n":%d}},`+
		`{"name":"readme/icfp","machine":{"model":"icfp"},"workload":{"fuzz":{"seed":%d,"sb_pressure":85},"n":%d}}]}`,
		i, seed, readmeN, seed, readmeN)
	s, err := spec.UnmarshalSuite([]byte(doc))
	if err != nil {
		return nil, err
	}
	return &submission{kind: kindREADME, name: s.Name, doc: []byte(doc), suite: s}, nil
}

// deck is the seeded submission sequence.
type deck struct {
	cfg  config
	warm []*submission
	fuzz spec.Suite
}

// at returns the submission at index i: each block of deckBlock is a
// seeded order of 45 warm, 4 fuzz and 1 README-shape slots.
func (d deck) at(i int) (*submission, error) {
	block := i / deckBlock
	order := seededRand(d.cfg.seed, 100+uint64(block)).Perm(deckBlock)
	switch slot := order[i%deckBlock]; {
	case slot < 45:
		return d.warm[seededRand(d.cfg.seed, 1000+uint64(i)).IntN(len(d.warm))], nil
	case slot < 49:
		return fuzzSuite(d.cfg, d.fuzz, i)
	default:
		return readmeSuite(d.cfg, i)
	}
}

// outcome is one measured submission.
type outcome struct {
	sub        *submission
	block      int
	latency    time.Duration
	firstEvent time.Duration
	dispatched bool
	out        []byte
	err        error
}

// block is one measured deck block.
type block struct {
	wall, cpu time.Duration
}

// load runs deck blocks from *next on until the deadline. In a block,
// workers closed-loop clients each submit the block's next entry as
// soon as their previous one returns; the block ends when all of its
// submissions have.
func load(svc *service, d deck, next *int, workers int, until time.Time) ([]outcome, []block, error) {
	clients := make([]*serve.Client, workers)
	for i := range clients {
		clients[i] = svc.client()
	}
	var outs []outcome
	var blocks []block
	var walls []float64
	for len(blocks) == 0 || time.Until(until).Seconds() > median(walls) {
		b := *next
		*next++
		res := make([]outcome, deckBlock)
		for i := range res {
			sub, err := d.at(b*deckBlock + i)
			if err != nil {
				return nil, nil, err
			}
			res[i] = outcome{sub: sub, block: len(blocks)}
		}
		var taken atomic.Int64
		var wg sync.WaitGroup
		c0, t0 := cpuTime(), time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := taken.Add(1) - 1; i < deckBlock; i = taken.Add(1) - 1 {
					submit(c, &res[i])
				}
			}()
		}
		wg.Wait()
		blk := block{wall: time.Since(t0), cpu: cpuTime() - c0}
		blocks = append(blocks, blk)
		walls = append(walls, blk.wall.Seconds())
		outs = append(outs, res...)
	}
	return outs, blocks, nil
}

// submit sends one submission and records how it went.
func submit(c *serve.Client, o *outcome) {
	t := time.Now()
	o.out, o.err = c.Submit(o.sub.doc, func(e serve.Event) {
		if o.firstEvent == 0 {
			o.firstEvent = time.Since(t)
		}
		if e.Event == "plan" && e.Dispatched > 0 {
			o.dispatched = true
		}
	})
	o.latency = time.Since(t)
}

// knownDefectCauses are the error texts of the recorded defect: in-order
// with n below the 150k warmup computes a 0/0 DCacheMissPerKI, the NaN
// cannot be JSON-encoded, so the worker drops its connection on every
// dispatch of the in-order job until the fleet gives up on it, or the
// store refuses to encode the result.
var knownDefectCauses = []*regexp.Regexp{
	regexp.MustCompile(`dist: job \(\{"model":"in-order"\} \| [^)]*\) failed on its \d+th dispatch, last worker [^:]+: EOF`),
	regexp.MustCompile(`json: unsupported value: NaN`),
}

// checkResponse scores one measured submission. A warm response must
// match its precomputed render; a fuzz or README-shape response must
// match a local render of its suite and have only finite results. A
// failed submission counts as the known defect only when it has the
// README shape, its error is a recorded cause, and the local render has
// a non-finite result; any other failure counts as failed.
func checkResponse(cfg config, o *outcome, chk *checks) error {
	if o.sub.kind == kindWarm {
		if o.err != nil {
			chk.check(false, "%s: %v", o.sub.name, o.err)
		} else {
			chk.check(bytes.Equal(cfg.output(o.out), o.sub.want), "response for %s differs from its local render", o.sub.name)
		}
		return nil
	}
	var want bytes.Buffer
	rs, err := registry.ReportSuite(&want, o.sub.suite, exp.Parallelism(cfg.workers))
	if err != nil {
		return err
	}
	finite := allFinite(rs.Results)
	switch {
	case o.err != nil && o.sub.kind == kindREADME && !finite && slices.ContainsFunc(knownDefectCauses, func(re *regexp.Regexp) bool {
		return re.MatchString(o.err.Error())
	}):
		chk.knownDefect("%s: %v", o.sub.name, o.err)
	case o.err != nil:
		chk.check(false, "%s: %v", o.sub.name, o.err)
	default:
		chk.check(finite, "%s: a pipeline.Result field is not finite", o.sub.name)
		chk.check(bytes.Equal(cfg.output(o.out), want.Bytes()), "response for %s differs from its local render", o.sub.name)
	}
	return nil
}

// runService measures service-mixed.
func runService(cfg config, golden *exp.Cache, scratch string, rep *report, chk *checks) error {
	warm, fig5, err := warmSuites(cfg, golden)
	if err != nil {
		return err
	}
	fz, err := registry.Describe("fuzz", params(goldenN, goldenWarm))
	if err != nil {
		return err
	}
	d := deck{cfg: cfg, warm: warm, fuzz: fz}
	rep.notef("%d registry suites at n %d warm %d; fuzz suites of %d of %d corpus jobs; README shape n %d; %d clients, %d fleet workers",
		len(warm), goldenN, goldenWarm, fuzzMembers*len(fz.Jobs)/len(workload.FuzzCorpus()), len(fz.Jobs), readmeN, cfg.workers, cfg.workers)

	// Set-up: a fresh store, fleet and server, cold-filled with the
	// registry suites. Repeated, so the median is steady; the last
	// service serves the load.
	var setups []float64
	var svc *service
	var spans *obs.SpanLog
	if cfg.trace {
		spans = obs.NewSpanLog()
	}
	for i := range 3 {
		if svc != nil {
			svc.close()
		}
		runtime.GC()
		t := time.Now()
		svc, err = startService(filepath.Join(scratch, fmt.Sprintf("store-%d", i)), cfg.workers, spans)
		if err != nil {
			return err
		}
		if err := svc.coldFill(warm, chk, cfg); err != nil {
			svc.close()
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer svc.close()

	// The measured loop. A traced run measures half untraced, then half
	// traced (CPU profile and dist spans on).
	next := 0
	t0 := time.Now()
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	outs, blocks, err := load(svc, d, &next, cfg.workers, t0.Add(budget))
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	var traced []outcome
	var tracedWall, tracedCPU time.Duration
	var prof bytes.Buffer
	delta := map[string]float64{} // the service counters over the traced half
	counters := []string{"expq_dispatched_jobs_total", "expq_attached_jobs_total", "dist_dispatched_batches_total",
		"dist_requeued_jobs_total", "expq_store_hits_total", "expq_store_misses_total"}
	t1 := time.Now()
	if cfg.trace {
		for _, name := range counters {
			delta[name] = counterValue(svc.reg, name)
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		c1 := cpuTime()
		traced, _, err = load(svc, d, &next, cfg.workers, t1.Add(budget))
		tracedWall, tracedCPU = time.Since(t1), cpuTime()-c1
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		for _, name := range counters {
			delta[name] = counterValue(svc.reg, name) - delta[name]
		}
	}

	// Checks: every response against its local render. The first fuzz
	// suite also feeds the layer probes.
	var lat, tracedLat, first []float64
	var fuzzSuites []spec.Suite
	for pass, set := range [][]outcome{outs, traced} {
		for i := range set {
			o := &set[i]
			ms := o.latency.Seconds() * 1e3
			if pass == 0 {
				lat = append(lat, ms)
			} else {
				tracedLat = append(tracedLat, ms)
				first = append(first, o.firstEvent.Seconds()*1e3)
			}
			if err := checkResponse(cfg, o, chk); err != nil {
				return err
			}
			if o.sub.kind == kindFuzz && o.err == nil && len(fuzzSuites) == 0 {
				fuzzSuites = append(fuzzSuites, o.sub.suite)
			}
		}
	}

	gap, geos := paperGap(fig5, "fig5")
	rep.notef("Figure 5 geomeans at n %d (Runahead, Multipass, SLTP, iCFP) %.1f%% vs paper 11/11/9/16", goldenN, geos)
	n := len(outs)
	rep.notef("%d submissions in %.2fs, %d deck blocks of %d (45 warm, 4 fuzz, 1 README shape)", n, wall.Seconds(), len(blocks), deckBlock)
	if !cfg.trace {
		var walls, cpus, rates []float64
		insts := blockInsts(svc.st, outs, len(blocks))
		for i, b := range blocks {
			walls = append(walls, b.wall.Seconds())
			cpus = append(cpus, b.cpu.Seconds())
			rates = append(rates, float64(insts[i])/1e6/b.wall.Seconds())
		}
		rep.timing("wall_s", "s", walls)
		rep.timing("cpu_s", "s", cpus)
		rep.endToEnd("sim_minst_per_s", "Minst/s", median(rates))
		rep.endToEnd("peak_rss_mb", "MB", peakRSSMB())
		rep.timing("setup_s", "s", setups)
		rep.endToEnd("paper_gap_pct", "pp", gap)
		rep.notef("submit_p50_ms %.4f ms  submit_p99_ms %.4f ms (n=%d)  submits_per_s %.2f 1/s",
			median(lat), percentile(lat, 99), len(lat), float64(n)/wall.Seconds())
		byKind := make([][]float64, 3)
		for _, o := range outs {
			byKind[o.sub.kind] = append(byKind[o.sub.kind], o.latency.Seconds()*1e3)
		}
		for k, name := range []string{"warm", "fuzz", "README"} {
			var sum float64
			for _, v := range byKind[k] {
				sum += v
			}
			rep.notef("  %-6s n=%d  p50 %.3f ms  p99 %.3f ms  total %.0f ms", name, len(byKind[k]), median(byKind[k]), percentile(byKind[k], 99), sum)
		}
		return nil
	}

	rep.layer("serve.submit_p50_ms", "ms", median(lat))
	rep.layer("serve.submit_p99_ms", "ms", percentile(lat, 99))
	rep.layer("serve.submits_per_s", "1/s", float64(n)/wall.Seconds())
	rep.layer("serve.first_event_ms", "ms", median(first))
	rep.layer("obs.trace_overhead_pct", "pct", 100*(median(tracedLat)/median(lat)-1))
	rep.layer("serve.dispatched_jobs", "count", delta["expq_dispatched_jobs_total"])
	rep.layer("serve.attached_jobs", "count", delta["expq_attached_jobs_total"])
	rounds, jobs := 0, 0
	for _, o := range traced {
		jobs += len(o.sub.suite.Jobs)
		if o.dispatched {
			rounds++
		}
	}
	rep.layer("dist.rounds", "count", float64(rounds))
	rep.layer("dist.batches", "count", delta["dist_dispatched_batches_total"])
	rep.layer("dist.requeues", "count", delta["dist_requeued_jobs_total"])

	var tracedSpans []obs.Span
	for _, s := range spans.Spans() {
		if !s.Start.Before(t1) {
			tracedSpans = append(tracedSpans, s)
		}
	}
	lookup := func(k exp.Key) (pipeline.Result, bool) {
		rec, ok, err := svc.st.Get(k)
		return rec.R, ok && err == nil
	}
	modelLayers(rep, tracedSpans, lookup, goldenWarm, tracedWall, cfg.workers)
	rep.layer("exp.jobs", "count", float64(jobs))
	rep.layer("exp.memo_hit_ratio", "ratio", 1-float64(len(tracedSpans))/float64(max(1, jobs)))
	distinct := map[string]bool{}
	for _, s := range tracedSpans {
		distinct[s.Workload] = true
	}
	rep.layer("exp.arena_generations", "count", float64(len(distinct)))
	rep.layer("exp.pool_cpu_share", "ratio", tracedCPU.Seconds()/(tracedWall.Seconds()*float64(cfg.workers)))
	rep.layer("pipeline.sample_ci95_pct", "pct", 0)
	cpuShares(rep, prof.Bytes())

	suites := fuzzSuites
	for _, w := range warm {
		suites = append(suites, w.suite)
	}
	in := probeInputs{workloads: distinctWorkloads(suites), suites: suites[len(fuzzSuites):], cache: golden, params: params(goldenN, goldenWarm)}
	if _, _, err := probeLayers(rep, in, scratch); err != nil {
		return err
	}
	hits, misses := delta["expq_store_hits_total"], delta["expq_store_misses_total"]
	rep.layer("store.hit_ratio", "ratio", hits/max(1, hits+misses))
	rep.layer("store.bytes", "bytes", float64(svc.st.Bytes()))
	return nil
}

// blockInsts sums, per deck block, the instructions of every result the
// fleet produced for the block's fuzz and README-shape submissions.
func blockInsts(st *store.Store, outs []outcome, blocks int) []int64 {
	n := make([]int64, blocks)
	for _, o := range outs {
		if o.err != nil || o.sub.kind == kindWarm {
			continue
		}
		for _, j := range o.sub.suite.Jobs {
			if rec, ok, err := st.Get(exp.KeyOf(j)); err == nil && ok {
				n[o.block] += rec.R.Insts
			}
		}
	}
	return n
}
