package registry

import (
	"io"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/spec"
)

// ReportDistributed is the distributed counterpart of Report: it plans
// the named experiments' deduplicated jobs, shards them across the
// workers arriving on opts.Join (workerParallel is each worker's
// internal pool size), merges the streamed results into cache, and
// renders every experiment locally from the warm cache. Because
// simulations are deterministic pure functions of their specs and
// results round-trip JSON exactly, the rendered report is
// byte-identical to a single-process Report at any fleet shape. Every
// dispatched job is self-describing, so workers need no matching job
// table — only a compatible simulator. Keys the cache already holds
// (filled from a result store, say) are not dispatched, so a warm store
// shrinks distributed runs as it shrinks local ones. The dispatch
// options pass through to dist.Run except Parallel, which this function
// owns.
func ReportDistributed(w io.Writer, names []string, p Params, workerParallel int, cache *exp.Cache, opts dist.Options) (map[string]*exp.ResultSet, error) {
	if cache == nil {
		cache = exp.NewCache()
	}
	plan, err := Plan(names, p)
	if err != nil {
		return nil, err
	}
	opts.Parallel = workerParallel
	if err := dist.Run(plan, cache, opts); err != nil {
		return nil, err
	}
	// Every key is now cached: this Run simulates nothing, it only
	// assembles result sets and renders — same code path, same bytes.
	return Report(w, names, p, exp.WithCache(cache), exp.Parallelism(1))
}

// ReportSuiteDistributed is ReportSuite across dist workers: the suite's
// deduplicated jobs are dispatched, results merge into cache, and the
// suite renders locally from the warm cache — byte-identical to a local
// ReportSuite at any fleet shape.
func ReportSuiteDistributed(w io.Writer, s spec.Suite, workerParallel int, cache *exp.Cache, opts dist.Options) (*exp.ResultSet, error) {
	if cache == nil {
		cache = exp.NewCache()
	}
	plan, err := PlanSuite(s)
	if err != nil {
		return nil, err
	}
	opts.Parallel = workerParallel
	if err := dist.Run(plan, cache, opts); err != nil {
		return nil, err
	}
	return ReportSuite(w, s, exp.WithCache(cache), exp.Parallelism(1))
}
