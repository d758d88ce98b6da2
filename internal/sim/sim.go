// Package sim names the five machines of the paper's evaluation and
// runs workloads against them on a concrete pipeline.Config.
//
// Each Model maps to its declarative spec.Machine (Model.Spec), and the
// spec's build step constructs it: Run is m.Spec().Build(cfg).Run(w),
// so this package imports no model package. The harness, the registry
// and the CLIs name machines by spec model strings; Model remains for
// programmatic use (unit tests, fuzzing, benchmarks) where a concrete
// configuration in hand is more convenient than a spec.
package sim

import (
	"fmt"

	"icfp/internal/pipeline"
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

// Run simulates workload w on model m with configuration cfg, each
// model applying its paper advance trigger (Model.Spec leaves it
// unset).
func Run(m Model, cfg pipeline.Config, w *workload.Workload) pipeline.Result {
	return m.Spec().Build(cfg).Run(w)
}

// RunSPEC simulates the named SPEC2000-profile benchmark with n timed
// instructions after the configured warmup.
func RunSPEC(m Model, cfg pipeline.Config, name string, n int) pipeline.Result {
	w := workload.SPEC(name, cfg.WarmupInsts+n)
	return Run(m, cfg, w)
}
