// Package sim names the five simulated micro-architectures and runs
// workloads against them directly.
//
// Each Model maps to its declarative spec.Machine (Model.Spec), and
// spec.Machine.New is the one constructor path behind the experiment
// harness; the paper's figures are registry suites
// (internal/exp/registry). The direct New/Run helpers remain for
// programmatic use (unit tests, fuzzing, benchmarks) where a concrete
// pipeline.Config in hand is more convenient than a spec.
package sim

import (
	"fmt"

	"icfp/internal/icfp"
	"icfp/internal/inorder"
	"icfp/internal/multipass"
	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/sltp"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

// Model names a simulated micro-architecture.
type Model int

// The five machines of the paper's evaluation.
const (
	InOrder Model = iota
	Runahead
	Multipass
	SLTP
	ICFP
)

// AllModels lists the machines in the paper's presentation order.
var AllModels = []Model{InOrder, Runahead, Multipass, SLTP, ICFP}

// String names the model as the paper does.
func (m Model) String() string {
	switch m {
	case InOrder:
		return "in-order"
	case Runahead:
		return "Runahead"
	case Multipass:
		return "Multipass"
	case SLTP:
		return "SLTP"
	case ICFP:
		return "iCFP"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Spec returns the model's declarative machine spec with its paper
// defaults (no trigger or store-buffer variation, no overrides).
func (m Model) Spec() spec.Machine {
	switch m {
	case InOrder:
		return spec.Machine{Model: spec.ModelInOrder}
	case Runahead:
		return spec.Machine{Model: spec.ModelRunahead}
	case Multipass:
		return spec.Machine{Model: spec.ModelMultipass}
	case SLTP:
		return spec.Machine{Model: spec.ModelSLTP}
	case ICFP:
		return spec.Machine{Model: spec.ModelICFP}
	}
	panic(fmt.Sprintf("sim: unknown model %d", int(m)))
}

// DefaultConfig returns the Table 1 machine with the paper's sampling
// methodology defaults — the configuration every spec diverges from
// (spec.BaseConfig).
func DefaultConfig() pipeline.Config {
	return spec.BaseConfig()
}

// New constructs model m on the given configuration. Each model applies
// its own paper configuration for the advance trigger (Figure 5's
// settings); use machine specs (or the model packages directly) for
// trigger sensitivity studies.
func New(m Model, cfg pipeline.Config) Runner {
	switch m {
	case InOrder:
		return inorder.New(cfg)
	case Runahead:
		return runahead.New(cfg)
	case Multipass:
		return multipass.New(cfg)
	case SLTP:
		return sltp.New(cfg)
	case ICFP:
		return icfp.New(cfg)
	}
	panic(fmt.Sprintf("sim: unknown model %d", int(m)))
}

// Run simulates workload w on model m.
func Run(m Model, cfg pipeline.Config, w *workload.Workload) pipeline.Result {
	return New(m, cfg).Run(w)
}

// RunSPEC simulates the named SPEC2000-profile benchmark with n timed
// instructions after the configured warmup.
func RunSPEC(m Model, cfg pipeline.Config, name string, n int) pipeline.Result {
	w := workload.SPEC(name, cfg.WarmupInsts+n)
	return Run(m, cfg, w)
}

// Runner runs a workload (satisfied by every machine in this module).
type Runner = spec.Runner
