// Latency sweep: reproduce the shape of the paper's Figure 6 on the
// equake profile — the benchmark whose secondary data-cache misses create
// Runahead's "D$-blocking vs D$-non-blocking" dilemma. As the L2 hit
// latency grows, advancing under data-cache misses becomes profitable;
// iCFP advances under every miss at every latency without regret.
//
// The jobs are the equake half of the registry's fig6 suite, run on one
// harness cache, so the in-order baseline at each latency simulates once
// and is reused by every machine swept against it.
package main

import (
	"fmt"
	"os"
	"strings"

	"icfp/internal/exp"
	"icfp/internal/exp/registry"
	"icfp/internal/sim"
)

func main() {
	p := registry.Params{Cfg: sim.DefaultConfig(), N: 250_000}
	suite, err := registry.Describe("fig6", p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latencysweep:", err)
		os.Exit(1)
	}

	// Equake job names are fig6/equake/<machine>/<latency>; machine
	// labels may contain '/', so split at the last one.
	const prefix = "fig6/equake/"
	var jobs []exp.Job
	var machines, lats []string
	seen := map[string]bool{}
	for _, j := range suite.Jobs {
		rest, ok := strings.CutPrefix(j.Name, prefix)
		if !ok {
			continue
		}
		jobs = append(jobs, exp.Job{Name: j.Name, Machine: j.Machine, Workload: j.Workload})
		i := strings.LastIndex(rest, "/")
		label, lat := rest[:i], rest[i+1:]
		if label != "base" && !seen[label] {
			seen[label] = true
			machines = append(machines, label)
		}
		if !seen["lat "+lat] {
			seen["lat "+lat] = true
			lats = append(lats, lat)
		}
	}
	cache := exp.NewCache()
	rs, err := exp.Run(jobs, exp.WithCache(cache))
	if err != nil {
		fmt.Fprintln(os.Stderr, "latencysweep:", err)
		os.Exit(1)
	}

	fmt.Println("equake-profile speedup over in-order vs L2 hit latency")
	fmt.Printf("%-18s", "config")
	for _, l := range lats {
		fmt.Printf(" %7sc", l)
	}
	fmt.Println()
	for _, m := range machines {
		fmt.Printf("%-18s", m)
		for _, l := range lats {
			fmt.Printf(" %+7.1f%%", rs.Speedup(prefix+m+"/"+l, prefix+"base/"+l))
		}
		fmt.Println()
	}
	fmt.Printf("(%d simulations for %d cells: each latency's in-order baseline ran once, shared by all %d machines)\n",
		cache.Simulations(), len(machines)*len(lats), len(machines))
}
