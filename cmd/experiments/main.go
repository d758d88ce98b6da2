// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) as text tables, driven by the experiment
// registry (internal/exp/registry):
//
//	-table1   machine configuration
//	-fig5     speedups over in-order: Runahead, Multipass, SLTP, iCFP
//	-table2   diagnostics: miss rates, D$/L2 MLP, iCFP rally rate
//	-fig6     L2 hit-latency sensitivity (equake + SPEC geomean)
//	-fig7     iCFP feature build from SLTP
//	-fig8     store-buffer design comparison
//	-hops     §3.2 chained store buffer hop statistics and chain-table size
//	-poison   §3.4 poison vector width study (1 vs 8 bits)
//	-area     §5.3 area overheads
//	-ooo      §5.3 out-of-order comparison
//	-ablate   structure-size ablations (DESIGN.md)
//	-all      everything above
//	-fig5s    Figure 5 at 25x workload length via interval sampling,
//	          every cell ± its 95% CI (runs only when named, not via -all)
//	-list     list the registry and exit
//
// -sample runs every selected experiment's SPEC workloads under
// SMARTS-style interval sampling: detailed simulation is confined to
// stratified measurement windows (plus a detailed ramp ahead of each)
// with fast functional warming in between, cutting wall clock by >= 10x
// on paper-scale runs at <= 1% CPI error. Sampled results carry 95%
// confidence intervals, rendered as "value ± ci" wherever tables show
// per-run rates. The policy defaults to registry.DefaultSampling (one
// window per twelfth of the run, 2% of each stratum measured, a ramp of
// three windows); -sample-interval, -sample-period, -sample-warmup,
// -sample-ramp and -sample-seed override individual knobs. Full-mode
// output is byte-identical to a build without the sampling harness.
//
// Experiments are declarative (internal/spec): every entry above is a
// serializable spec.Suite of (machine, workload) jobs.
//
//	-describe <name>   emit the named experiment as suite JSON and exit
//	-spec <file>       run a suite from JSON ("-" reads stdin)
//
// A described suite run back through -spec renders byte-identically to
// running the experiment directly, and user-authored suites (see
// examples/customsuite and the README's "Defining your own experiments")
// can name any machine, workload, and sweep the simulator supports —
// no Go required. Decoding is strict: unknown fields and out-of-range
// values fail with actionable errors.
//
// Simulations run on a worker pool (-parallel N) with memoized sharing of
// common work, so the in-order baselines behind every speedup figure run
// once for the whole invocation, and every distinct workload is generated
// once and shared read-only across all machines; the output is
// byte-identical at every parallelism setting. -json FILE additionally
// exports every result set as machine-readable JSON.
//
// -workers N shards the simulations across N subprocess copies of this
// binary (internal/dist): each worker registers over its stdin/stdout
// exactly as an `expd join` worker registers over TCP, the deduplicated
// job plan is dispatched in work-stealing batches over a
// length-delimited JSON protocol, completed results stream back into
// the shared cache as they finish, and the report is rendered locally
// from the warm cache — so output is byte-identical to a single-process
// run at any worker count, and a crashed worker's batch is reassigned
// to the survivors. Batches carry self-describing specs, so workers need
// no matching job table. The hidden -worker-stdio flag is the worker
// side of that protocol; cmd/expd speaks the same protocol over TCP —
// with optional TLS and token auth — for multi-host runs (see
// docs/ARCHITECTURE.md and docs/OPERATIONS.md).
//
// -server URL submits the selected experiments (or the -spec suite) to
// a running expq simulation daemon instead of simulating locally: the
// daemon answers from its persistent result store, simulates only
// genuinely new work, and streams back the rendered report —
// byte-identical to the local run at any fleet shape.
// -server-token/-server-tls-ca/-server-tls-name authenticate the
// connection; execution flags (-workers, -store, -json, -run-summary,
// profiling) conflict with -server, since the daemon owns execution. See
// docs/OPERATIONS.md, "Running expq".
//
// -store DIR keeps results across invocations in the content-addressed
// result store (internal/store, the layout `expq -store` uses): the
// planned simulations already on disk are loaded before the run, and
// every new simulation is written as it completes — locally or on a
// worker — so re-running (or running a different selection that shares
// work) skips everything already stored, and an interrupted run loses
// only its in-flight simulations. Records are keyed by canonical
// machine/workload specs. Results are deterministic, so a store built by
// an older simulator version must be deleted after any behavioural
// change — the golden tests pin when that happens.
//
// -cpuprofile/-memprofile write pprof profiles of the run, the
// performance workflow described in README.md ("Performance").
//
// Runs are deterministic; -n and -warm control sample sizes (the paper
// samples 1M-instruction windows after 4M-instruction warmups; the
// defaults here are scaled down to keep the full suite to a few minutes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/obs"
	"icfp/internal/serve"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/store"
)

var (
	flagAll         = flag.Bool("all", false, "run every experiment")
	flagList        = flag.Bool("list", false, "list the experiment registry and exit")
	flagDescribe    = flag.String("describe", "", "emit the named experiment as spec.Suite JSON and exit")
	flagSpec        = flag.String("spec", "", "run a suite from this JSON file instead of named experiments ('-' reads stdin)")
	flagN           = flag.Int("n", 400_000, "timed instructions per sample")
	flagWarm        = flag.Int("warm", 150_000, "warmup instructions per sample")
	flagParallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size (results are identical at any setting)")
	flagWorkers     = flag.Int("workers", 0, "shard simulations across N subprocess workers (0 = this process only; results are identical at any setting)")
	flagWorkerStdio = flag.Bool("worker-stdio", false, "serve as a stdio protocol worker (internal: spawned by -workers)")
	flagJSON        = flag.String("json", "", "also write every result set to this file as JSON")
	flagStore       = flag.String("store", "", "load and persist results in this result-store directory (the expq -store layout)")
	flagServer      = flag.String("server", "", "submit the selected experiments to a running expq daemon at this base URL instead of simulating locally")
	flagServerToken = flag.String("server-token", "", "bearer token for -server (the daemon's -token)")
	flagServerCA    = flag.String("server-tls-ca", "", "CA certificate file to verify an https -server against")
	flagServerName  = flag.String("server-tls-name", "", "expected TLS server name for -server when it differs from the URL host")
	flagCPUProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flagMemProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	flagRunSummary  = flag.String("run-summary", "", "write the run's span timeline (per-simulation start/end/worker/elapsed) to this JSON file")

	flagSample         = flag.Bool("sample", false, "run SPEC workloads under interval sampling; results carry 95% confidence intervals")
	flagSampleInterval = flag.Int("sample-interval", 0, "sampled: measured instructions per window (default: scaled to the run length)")
	flagSamplePeriod   = flag.Int("sample-period", 0, "sampled: stratum length between windows (default: a twelfth of the run)")
	flagSampleWarmup   = flag.Int("sample-warmup", 0, "sampled: minimum functionally warmed prefix before the first window")
	flagSampleRamp     = flag.Int("sample-ramp", 0, "sampled: detailed (unmeasured) instructions ahead of each window (default: three intervals)")
	flagSampleSeed     = flag.Int64("sample-seed", 0, "sampled: stratified window placement seed (default 1; 0 via -sample places windows systematically)")
)

// export is the -json file layout: the sample-size parameters and one
// result set per experiment (or suite) run.
type export struct {
	N           int                       `json:"n"`
	Warmup      int                       `json:"warmup"`
	Experiments map[string]*exp.ResultSet `json:"experiments"`
}

// usageError prints the message and the flag usage, then exits 2 — the
// conventional bad-invocation exit code.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "experiments:", msg)
	flag.Usage()
	os.Exit(2)
}

func main() {
	all := registry.All()
	sel := make(map[string]*bool, len(all))
	for _, e := range all {
		sel[e.Name] = flag.Bool(e.Name, false, e.Desc)
	}
	flag.Parse()

	if *flagWorkerStdio {
		// Worker mode: register, then speak the protocol on stdin/stdout
		// and nothing else; the coordinator owns every other concern.
		// The empty name lets the coordinator label it by spawn index.
		rw := dist.Stdio()
		err := dist.Register(rw, "")
		if err == nil {
			err = dist.Serve(rw)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: worker:", err)
			os.Exit(1)
		}
		return
	}

	if *flagList {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	switch {
	case *flagParallel <= 0:
		usageError(fmt.Sprintf("-parallel %d: need at least one pool worker", *flagParallel))
	case *flagWorkers < 0:
		usageError(fmt.Sprintf("-workers %d: need a non-negative worker count", *flagWorkers))
	case *flagN <= 0:
		usageError(fmt.Sprintf("-n %d: need at least one timed instruction", *flagN))
	case *flagWarm < 0:
		usageError(fmt.Sprintf("-warm %d: need a non-negative warmup", *flagWarm))
	case *flagDescribe != "" && *flagSpec != "":
		usageError("-describe and -spec are mutually exclusive")
	}
	// The -sample-* knobs refine -sample; alone they would silently do
	// nothing, so reject the combination.
	if !*flagSample {
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "sample-") {
				usageError("-" + f.Name + " requires -sample")
			}
		})
	}

	var names []string
	for _, e := range all {
		// Extra experiments (the sampled long-workload variants) run only
		// when named, keeping -all exactly the paper's evaluation.
		if (*flagAll && !e.Extra) || *sel[e.Name] {
			names = append(names, e.Name)
		}
	}

	p := registry.Params{Cfg: sim.DefaultConfig(), N: *flagN}
	p.Cfg.WarmupInsts = *flagWarm
	if *flagSample {
		pol := registry.DefaultSampling(*flagWarm + *flagN)
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sample-interval":
				pol.Interval = *flagSampleInterval
			case "sample-period":
				pol.Period = *flagSamplePeriod
			case "sample-warmup":
				pol.Warmup = *flagSampleWarmup
			case "sample-ramp":
				pol.Ramp = *flagSampleRamp
			case "sample-seed":
				pol.Seed = *flagSampleSeed
			}
		})
		p.Sampling = pol
	}

	if *flagDescribe != "" {
		if len(names) > 0 {
			usageError("-describe emits one experiment; drop the named experiment flags")
		}
		s, err := registry.Describe(*flagDescribe, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		b, err := s.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}

	var suite spec.Suite
	if *flagSpec != "" {
		if len(names) > 0 {
			usageError("-spec runs a suite file; drop the named experiment flags")
		}
		// Sample sizes live in the suite; an explicit -n/-warm here
		// would be silently ignored, so reject the combination.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" || f.Name == "warm" {
				usageError("-" + f.Name + " conflicts with -spec: sample sizes come from the suite file")
			}
			if f.Name == "sample" || strings.HasPrefix(f.Name, "sample-") {
				usageError("-" + f.Name + " conflicts with -spec: sampling policies live on the suite file's workloads")
			}
		})
		var err error
		suite, err = loadSuite(*flagSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	} else if len(names) == 0 {
		usageError("no experiments selected")
	}

	if *flagServer != "" {
		// Remote mode: the daemon owns execution, caching, parallelism,
		// and profiling — flags that configure local execution would be
		// silently ignored, so reject them instead.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers", "store", "json", "run-summary", "cpuprofile", "memprofile", "parallel":
				usageError("-" + f.Name + " conflicts with -server: execution happens on the daemon")
			}
		})
		if err := runRemote(names, p, suite, *flagSpec != ""); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	// With -store, the planned simulations already stored are answered
	// from disk and every new one is persisted as it completes (persist
	// is nil without a store), so an interrupt or a mid-run failure
	// loses only in-flight work.
	cache := exp.NewCache()
	var persist func(exp.Key)
	persistErr := func() error { return nil }
	if *flagStore != "" {
		st, err := store.Open(*flagStore, store.Options{})
		if err != nil {
			fail(err)
		}
		var plan []spec.Job
		if *flagSpec != "" {
			plan, err = registry.PlanSuite(suite)
		} else {
			plan, err = registry.Plan(names, p)
		}
		if err == nil {
			_, err = st.Fill(cache, plan)
		}
		if err != nil {
			fail(err)
		}
		persist, persistErr = st.Persist(cache)
	}

	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	log := obs.NewLogger(os.Stderr)
	distOpts := dist.Options{Log: log, OnMerge: persist}
	if *flagWorkers > 0 {
		workers, fleet, err := spawnWorkers(log)
		if err != nil {
			fail(err)
		}
		// The run closes every worker it admitted; the rest are ours.
		defer dist.CloseAll(workers)
		distOpts.Join = fleet
	}

	// The span log records one entry per simulation — local pool workers
	// and dist fleet members alike — when -run-summary asks for the
	// timeline; nil otherwise, and every Add on nil is a no-op.
	var spans *obs.SpanLog
	if *flagRunSummary != "" {
		spans = obs.NewSpanLog()
	}

	sets := make(map[string]*exp.ResultSet)
	exportN, exportWarm := *flagN, *flagWarm
	distOpts.Spans = spans
	local := []exp.Option{exp.Parallelism(*flagParallel), exp.WithCache(cache), exp.WithSpans(spans), exp.OnRun(persist)}
	var err error
	switch {
	case *flagSpec != "" && *flagWorkers > 0:
		var rs *exp.ResultSet
		rs, err = registry.ReportSuiteDistributed(os.Stdout, suite, perWorkerParallel(), cache, distOpts)
		sets[suite.Name] = rs
		exportN, exportWarm = suite.N, suite.Warm
	case *flagSpec != "":
		var rs *exp.ResultSet
		rs, err = registry.ReportSuite(os.Stdout, suite, local...)
		sets[suite.Name] = rs
		exportN, exportWarm = suite.N, suite.Warm
	case *flagWorkers > 0:
		sets, err = registry.ReportDistributed(os.Stdout, names, p, perWorkerParallel(), cache, distOpts)
	default:
		sets, err = registry.Report(os.Stdout, names, p, local...)
	}
	if err == nil {
		// A result that did not persist would be re-simulated by the
		// next run over the store: a failed run, not a warning.
		err = persistErr()
	}
	if err != nil {
		fail(err)
	}

	if *flagRunSummary != "" {
		f, err := os.Create(*flagRunSummary)
		if err != nil {
			fail(err)
		}
		err = spans.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}

	if *flagMemProfile != "" {
		f, err := os.Create(*flagMemProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}

	if *flagJSON != "" {
		f, err := os.Create(*flagJSON)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(export{N: exportN, Warmup: exportWarm, Experiments: sets})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
	}
}

// runRemote submits the selected work to an expq daemon and writes the
// rendered reports to stdout. Each experiment is described as the same
// suite document -describe emits and submitted in selection order, so
// the concatenated output is byte-identical to running the selection
// locally (the describe/spec round trip CI pins, transitively).
func runRemote(names []string, p registry.Params, suite spec.Suite, haveSuite bool) error {
	c, err := serve.NewClient(*flagServer, *flagServerToken, *flagServerCA, *flagServerName)
	if err != nil {
		return err
	}
	submit := func(s spec.Suite) error {
		b, err := s.Marshal()
		if err != nil {
			return err
		}
		out, err := c.Submit(b, nil)
		if err != nil {
			return fmt.Errorf("suite %q: %w", s.Name, err)
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if haveSuite {
		return submit(suite)
	}
	for _, name := range names {
		s, err := registry.Describe(name, p)
		if err != nil {
			return err
		}
		if err := submit(s); err != nil {
			return err
		}
	}
	return nil
}

// loadSuite reads and strictly decodes a suite file ("-" means stdin).
func loadSuite(path string) (spec.Suite, error) {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return spec.Suite{}, err
	}
	s, err := spec.UnmarshalSuite(data)
	if err != nil {
		return spec.Suite{}, fmt.Errorf("suite %s: %w", path, err)
	}
	return s, nil
}

// spawnWorkers self-execs -workers subprocess copies of this binary in
// -worker-stdio mode and admits each through its register frame
// (dist.AcceptWorker), the handshake expd join workers make over TCP. It
// returns every spawned transport — the caller closes the ones the run
// never admitted — and the run's fixed fleet: a channel closed after the
// last registered worker, so a run that loses every worker fails
// instead of waiting for a join.
func spawnWorkers(log *slog.Logger) ([]dist.Worker, <-chan dist.Worker, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating own binary for worker self-exec: %w", err)
	}
	workers := make([]dist.Worker, 0, *flagWorkers)
	for i := 0; i < *flagWorkers; i++ {
		w, err := dist.Command(fmt.Sprintf("proc %d", i), bin, "-worker-stdio")
		if err != nil {
			dist.CloseAll(workers)
			return nil, nil, err
		}
		workers = append(workers, w)
	}
	fleet := make(chan dist.Worker, len(workers))
	for _, w := range workers {
		registered, err := dist.AcceptWorker(w.RW, w.Name)
		if err != nil {
			log.Info("rejecting worker", obs.KeyWorker, w.Name, obs.KeyCause, err)
			continue
		}
		fleet <- registered
	}
	close(fleet)
	return workers, fleet, nil
}

// perWorkerParallel splits the -parallel budget across workers (each
// gets the ceiling share, minimum 1).
func perWorkerParallel() int {
	return (*flagParallel + *flagWorkers - 1) / *flagWorkers
}
