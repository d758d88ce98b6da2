// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in-process through the public entry points
// (registry.Report, exp.Run, serve.Server + serve.Client), checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also traces and prints the per-layer ones instead. Timings are
// host time; simulated statistics are deterministic and serve as
// correctness checks. See README.md in this directory for the workloads
// and the layer-to-end-to-end map.
//
//	bash perfbench/run.sh --workload paper-all --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"paper-all", "sampled-long", "service-mixed"}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
	// root is the checkout the run reads the committed golden from;
	// scratch is the directory it writes its temporary files under.
	root, scratch string
	// workers bounds pool workers, service clients and fleet workers.
	workers int
	// corrupt, when set, rewrites every output before it is checked:
	// the benchmark's own tests use it to prove a wrong output counts.
	corrupt func([]byte) []byte
	out     io.Writer // human-readable report
}

// sizes are the instruction counts the local workloads simulate at.
// service-mixed serves its suites at the golden's size (goldenN,
// goldenWarm), so their local renders come from the golden run's cache.
type sizes struct {
	paperN, paperWarm     int // paper-all: -all in full mode
	sampledN, sampledWarm int // sampled-long: fig5s, whose timed length is 25*sampledN
}

// benchSizes are the sizes of record. paper-all runs -all at a quarter
// of the registry default (-n 400000 -warm 150000): one default-size
// pass takes about 24 s on two cores, and the digest check needs two
// passes in a run. sampledN keeps the fig5s peak RSS near 1 GB; the
// registry default needs more than 8 GB.
var benchSizes = sizes{
	paperN: 100_000, paperWarm: 40_000,
	sampledN: 16_000, sampledWarm: 150_000,
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.IntVar(&seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 traces the run and prints the per-layer metrics")
	flag.Parse()
	if (trace != 0 && trace != 1) || seconds < 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1 and -seconds at least 1"))
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.size = benchSizes
	cfg.workers = runtime.NumCPU()
	cfg.out = os.Stdout
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.root, cfg.scratch = wd, filepath.Join(wd, ".bench_build")
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload and returns its result line.
func run(cfg config) (*result, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	rep := newReport(cfg.out)
	rep.notef("workload %s  seed %d  seconds %.0f  trace %v  workers %d", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.workers)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	chk := &checks{rep: rep}
	golden, err := checkGolden(cfg, chk)
	if err != nil {
		return nil, err
	}
	switch cfg.workload {
	case "paper-all":
		err = runLocal(cfg, paperAll(cfg), scratch, rep, chk)
	case "sampled-long":
		var lw localWorkload
		if lw, err = sampledLong(cfg); err == nil {
			err = runLocal(cfg, lw, scratch, rep, chk)
		}
	case "service-mixed":
		err = runService(cfg, golden, scratch, rep, chk)
	}
	if err != nil {
		return nil, err
	}
	rep.notef("checks: %d attempted, %d failed (failed_share %.4f), %d known defects (known_defect_share %.4f)",
		chk.attempted, chk.failed, chk.share(chk.failed), chk.known, chk.share(chk.known))
	if cfg.trace {
		rep.layer("failed_share", "ratio", chk.share(chk.failed))
		rep.layer("known_defect_share", "ratio", chk.share(chk.known))
	}
	return &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   rep.metrics(cfg.trace),
	}, nil
}

// The committed golden is -all at these sizes.
const goldenN, goldenWarm = 2000, 1000

// checkGolden renders -all at the golden's size and requires a byte match
// with the committed cmd/experiments/testdata/golden_all_tiny.txt. It
// returns the warm cache of that run.
func checkGolden(cfg config, chk *checks) (*exp.Cache, error) {
	want, err := os.ReadFile(filepath.Join(cfg.root, "cmd", "experiments", "testdata", "golden_all_tiny.txt"))
	if err != nil {
		return nil, fmt.Errorf("reading the committed golden: %w", err)
	}
	c := exp.NewCache()
	var out bytes.Buffer
	if _, err := registry.Report(&out, registry.DefaultNames(), params(goldenN, goldenWarm), exp.WithCache(c), exp.Parallelism(cfg.workers)); err != nil {
		return nil, err
	}
	chk.check(bytes.Equal(cfg.output(out.Bytes()), want), "-all at -n %d -warm %d differs from the committed golden", goldenN, goldenWarm)
	return c, nil
}
