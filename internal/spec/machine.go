package spec

import (
	"fmt"

	"icfp/internal/icfp"
	"icfp/internal/inorder"
	"icfp/internal/ooo"
	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/sltp"
)

// Config returns the concrete pipeline configuration the machine runs
// on: BaseConfig with the overrides applied. The machine must be valid.
func (m Machine) Config() (pipeline.Config, error) {
	if err := m.Validate(); err != nil {
		return pipeline.Config{}, err
	}
	cfg := BaseConfig()
	m.Overrides.apply(&cfg)
	return cfg, nil
}

// trigger maps a spec trigger name to the pipeline policy.
func trigger(name string) pipeline.AdvanceTrigger {
	switch name {
	case TriggerL2:
		return pipeline.TriggerL2Only
	case TriggerPrimaryD1:
		return pipeline.TriggerPrimaryD1
	case TriggerAll:
		return pipeline.TriggerAll
	}
	panic(fmt.Sprintf("spec: unvalidated trigger %q", name))
}

// sbMode maps a spec store-buffer name to the iCFP design.
func sbMode(name string) icfp.SBMode {
	switch name {
	case "", SBChained:
		return icfp.SBChained
	case SBIdeal:
		return icfp.SBIdeal
	case SBLimited:
		return icfp.SBLimited
	}
	panic(fmt.Sprintf("spec: unvalidated store_buffer %q", name))
}

// New constructs the declared machine — the one constructor path behind
// the harness, the registry, and distributed workers: Config, then
// Build.
func (m Machine) New() (Runner, error) {
	cfg, err := m.Config()
	if err != nil {
		return nil, err
	}
	return m.Build(cfg), nil
}

// Build constructs the declared machine on cfg, a concrete
// configuration such as Config returns; the machine must be valid. An
// empty Trigger leaves each model its paper default: runahead honours
// cfg's trigger and D$-blocking setting; multipass advances under L2
// and primary D$ misses, blocking on secondary D$ misses; sltp always
// advances under L2 misses only; icfp advances under all misses. An
// explicit trigger replaces cfg's and leaves its D$-blocking setting as
// configured.
func (m Machine) Build(cfg pipeline.Config) Runner {
	if m.Trigger != "" {
		cfg.Trigger = trigger(m.Trigger)
	}
	switch m.Model {
	case ModelInOrder:
		return inorder.New(cfg)
	case ModelRunahead:
		return runahead.New(cfg)
	case ModelMultipass:
		if m.Trigger == "" {
			cfg.Trigger = pipeline.TriggerPrimaryD1
			cfg.BlockSecondaryD1 = true
		}
		return runahead.NewMultipass(cfg)
	case ModelSLTP:
		return sltp.New(cfg)
	case ModelICFP:
		if m.Trigger == "" {
			cfg.Trigger = pipeline.TriggerAll
		}
		return icfp.NewWithOptions(cfg, cfg.Trigger, sbMode(m.StoreBuffer))
	case ModelOOO:
		oc := ooo.DefaultConfig()
		oc.Config = cfg
		oc.CFP = m.CFP
		if m.Overrides != nil && m.Overrides.ROBEntries != nil {
			oc.ROBEntries = *m.Overrides.ROBEntries
		}
		return ooo.New(oc)
	}
	panic(fmt.Sprintf("spec: unvalidated model %q", m.Model))
}
