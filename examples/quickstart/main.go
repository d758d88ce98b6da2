// Quickstart: run one workload on the in-order baseline and on iCFP, and
// print the speedup. This is the minimal use of the library's public
// surface: a spec.Workload names the trace and New generates it, a
// spec.Machine names the machine (its Table 1 configuration is
// spec.BaseConfig plus the machine's overrides) and New builds it, and
// every machine is a spec.Runner — Run for a full simulation, RunSampled
// under an interval-sampling policy. sim.Run is the same path for
// callers that hold a concrete pipeline.Config.
package main

import (
	"fmt"

	"icfp/internal/pipeline"
	"icfp/internal/spec"
)

func main() {
	// A deterministic mcf-profile workload: pointer chasing over a
	// working set larger than the L2, the worst case for an in-order
	// pipeline. The trace covers the Table 1 warmup plus the timed
	// instructions.
	const timed = 300_000
	w := spec.SPECWorkload("mcf", spec.BaseConfig().WarmupInsts+timed).New()
	run := func(model string) pipeline.Result {
		r, err := spec.Machine{Model: model}.New()
		if err != nil {
			panic(err)
		}
		return r.Run(w)
	}

	base := run(spec.ModelInOrder)
	icfp := run(spec.ModelICFP)

	fmt.Printf("workload: %s (%d timed instructions)\n", base.Name, base.Insts)
	fmt.Printf("in-order: %8d cycles  IPC %.3f\n", base.Cycles, base.IPC())
	fmt.Printf("iCFP:     %8d cycles  IPC %.3f\n", icfp.Cycles, icfp.IPC())
	fmt.Printf("speedup:  %+.1f%%\n", icfp.SpeedupOver(base))
	fmt.Printf("iCFP rallied %.0f instructions per 1000 committed across %d passes\n",
		icfp.RallyPerKI, icfp.RallyPasses)
}
