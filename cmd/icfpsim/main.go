// Command icfpsim runs one benchmark workload on one simulated
// micro-architecture and prints its statistics.
//
// Usage:
//
//	icfpsim [-model icfp] [-bench mcf] [-n 400000] [-warm 150000] [-l2lat 20] [-baseline]
//
// Models are the spec model names: in-order, runahead, multipass, sltp,
// icfp, ooo. Benchmarks: the 24 SPEC2000 profile names (ammp..wupwise,
// bzip2..vpr), or scenario:a..scenario:f for the Figure 1
// micro-scenarios (fixed length, no warmup). The run is the spec
// machine with -warm and -l2lat as overrides on that workload, so an
// input the spec rejects exits 2 with the spec's error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"icfp/internal/spec"
	"icfp/internal/workload"
)

var (
	flagModel = flag.String("model", spec.ModelICFP, strings.Join(spec.Models, " | "))
	flagBench = flag.String("bench", "mcf", "SPEC2000 profile name or scenario:a..scenario:f")
	flagN     = flag.Int("n", 400_000, "timed instructions (at least 1)")
	flagWarm  = flag.Int("warm", 150_000, "warmup instructions")
	flagL2    = flag.Int("l2lat", 20, "L2 hit latency in cycles")
	flagBase  = flag.Bool("baseline", false, "also run the in-order baseline and print speedup")
)

var scenarios = map[string]workload.Scenario{
	"scenario:a": workload.ScenarioLoneL2,
	"scenario:b": workload.ScenarioIndependentL2,
	"scenario:c": workload.ScenarioDependentL2,
	"scenario:d": workload.ScenarioChains,
	"scenario:e": workload.ScenarioD1IndependentL2,
	"scenario:f": workload.ScenarioD1DependentL2,
}

// fail reports a rejected input and exits with the usage status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "icfpsim:", err)
	os.Exit(2)
}

func main() {
	flag.Parse()
	if *flagN < 1 {
		fmt.Fprintf(os.Stderr, "icfpsim: -n %d: want at least 1 timed instruction\n", *flagN)
		flag.Usage()
		os.Exit(2)
	}
	warm := *flagWarm
	var wl spec.Workload
	if sc, ok := scenarios[*flagBench]; ok {
		warm = 0
		wl = spec.ScenarioWorkload(sc)
	} else {
		wl = spec.SPECWorkload(*flagBench, warm+*flagN)
	}
	if err := wl.Validate(); err != nil {
		fail(err)
	}
	m := spec.Machine{Model: strings.ToLower(*flagModel), Overrides: &spec.Overrides{Warmup: spec.Int(warm), L2HitLat: spec.Int(*flagL2)}}
	run := func(m spec.Machine) spec.Runner {
		r, err := m.New()
		if err != nil {
			fail(err)
		}
		return r
	}
	r := run(m)

	w := wl.New()
	res := r.Run(w)
	fmt.Printf("%s on %s:\n", m.Model, res.Name)
	fmt.Printf("  cycles        %12d\n", res.Cycles)
	fmt.Printf("  instructions  %12d   (IPC %.3f)\n", res.Insts, res.IPC())
	fmt.Printf("  D$ miss/KI    %12.1f   L2 miss/KI %.1f\n", res.DCacheMissPerKI, res.L2MissPerKI)
	fmt.Printf("  D$ MLP        %12.2f   L2 MLP     %.2f\n", res.DCacheMLP, res.L2MLP)
	fmt.Printf("  mispredicts   %12d\n", res.BranchMispredicts)
	if res.Advances > 0 {
		fmt.Printf("  advances      %12d   advance insts %d\n", res.Advances, res.AdvanceInsts)
		fmt.Printf("  rally passes  %12d   rally/KI %.0f\n", res.RallyPasses, res.RallyPerKI)
		fmt.Printf("  squashes      %12d   slice/SB overflows %d/%d\n", res.Squashes, res.SliceOverflows, res.SBOverflows)
	}
	if res.SBForwards > 0 {
		fmt.Printf("  SB forwards   %12d   mean extra hops %.3f\n", res.SBForwards, res.SBExtraHops)
	}
	if *flagBase && m.Model != spec.ModelInOrder {
		base := run(spec.Machine{Model: spec.ModelInOrder, Overrides: m.Overrides}).Run(w)
		fmt.Printf("  speedup over in-order: %+.1f%%\n", res.SpeedupOver(base))
	}
}
