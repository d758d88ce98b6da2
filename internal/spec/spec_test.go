package spec_test

import (
	"reflect"
	"strings"
	"testing"

	"icfp/internal/icfp"
	"icfp/internal/inorder"
	"icfp/internal/ooo"
	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/sltp"
	"icfp/internal/spec"
	"icfp/internal/workload"
)

func TestCanonicalSortsKeysAndIsStable(t *testing.T) {
	m := spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerL2,
		Overrides: &spec.Overrides{Warmup: spec.Int(1000), L2HitLat: spec.Int(30)}}
	c := m.Canonical()
	if c != m.Canonical() {
		t.Fatal("canonical encoding is not stable")
	}
	// Keys are sorted: "l2_hit_lat" < "warmup" inside overrides, "model"
	// < "overrides" < "trigger" at the top.
	if want := `{"model":"icfp","overrides":{"l2_hit_lat":30,"warmup":1000},"trigger":"l2"}`; c != want {
		t.Errorf("canonical = %s, want %s", c, want)
	}
	if w := spec.SPECWorkload("mcf", 3000); w.Canonical() != `{"n":3000,"spec":"mcf"}` {
		t.Errorf("workload canonical = %s", w.Canonical())
	}
	// Equal values encode equally regardless of how they were built.
	m2 := spec.Machine{Trigger: spec.TriggerL2, Model: spec.ModelICFP,
		Overrides: &spec.Overrides{L2HitLat: spec.Int(30), Warmup: spec.Int(1000)}}
	if m2.Canonical() != c {
		t.Error("field assignment order leaked into the canonical encoding")
	}
}

// TestCanonicalCollapsesPaperDefaultSpellings pins the key-sharing
// rule: explicit paper-default policies encode like the empty field, so
// identically constructed machines (Figure 8's chained column vs Figure
// 5's full iCFP) share one cache key — while equivalences that do not
// hold under every override (multipass) stay distinct.
func TestCanonicalCollapsesPaperDefaultSpellings(t *testing.T) {
	icfpDefault := spec.Machine{Model: spec.ModelICFP}
	icfpExplicit := spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerAll, StoreBuffer: spec.SBChained}
	if icfpDefault.Canonical() != icfpExplicit.Canonical() {
		t.Error("explicit all/chained iCFP must share the default iCFP's key")
	}
	raDefault := spec.Machine{Model: spec.ModelRunahead}
	raExplicit := spec.Machine{Model: spec.ModelRunahead, Trigger: spec.TriggerL2}
	if raDefault.Canonical() != raExplicit.Canonical() {
		t.Error("explicit l2 runahead must share the default runahead's key")
	}
	// Non-defaults stay distinct.
	if (spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerL2}).Canonical() == icfpDefault.Canonical() {
		t.Error("iCFP-L2 collapsed into the default iCFP")
	}
	if (spec.Machine{Model: spec.ModelICFP, StoreBuffer: spec.SBIdeal}).Canonical() == icfpDefault.Canonical() {
		t.Error("ideal store buffer collapsed into chained")
	}
	// Multipass's explicit default trigger is NOT the same machine under
	// a block_secondary_d1 override, so it must not collapse.
	mpDefault := spec.Machine{Model: spec.ModelMultipass}
	mpExplicit := spec.Machine{Model: spec.ModelMultipass, Trigger: spec.TriggerPrimaryD1}
	if mpDefault.Canonical() == mpExplicit.Canonical() {
		t.Error("multipass explicit trigger must stay a distinct key")
	}
}

// TestMachineNewMatchesDirectConstructors pins that the spec constructor
// path builds the same machines as the direct model constructors: same
// cycle counts on a real workload.
func TestMachineNewMatchesDirectConstructors(t *testing.T) {
	cfg := spec.BaseConfig()
	cfg.WarmupInsts = 5_000
	w := workload.SPEC("mcf", cfg.WarmupInsts+20_000)
	warm := &spec.Overrides{Warmup: spec.Int(5_000)}

	mpCfg := cfg
	mpCfg.Trigger = pipeline.TriggerPrimaryD1
	mpCfg.BlockSecondaryD1 = true
	direct := map[string]spec.Runner{
		"in-order":  inorder.New(cfg),
		"runahead":  runahead.New(cfg),
		"multipass": runahead.NewMultipass(mpCfg),
		"sltp":      sltp.New(cfg),
		"icfp":      icfp.New(cfg),
		"icfp-l2":   icfp.NewWithOptions(cfg, pipeline.TriggerL2Only, icfp.SBChained),
		"icfp-sb":   icfp.NewWithOptions(cfg, pipeline.TriggerAll, icfp.SBLimited),
	}
	viaSpec := map[string]spec.Machine{
		"in-order":  {Model: spec.ModelInOrder, Overrides: warm},
		"runahead":  {Model: spec.ModelRunahead, Overrides: warm},
		"multipass": {Model: spec.ModelMultipass, Overrides: warm},
		"sltp":      {Model: spec.ModelSLTP, Overrides: warm},
		"icfp":      {Model: spec.ModelICFP, Overrides: warm},
		"icfp-l2":   {Model: spec.ModelICFP, Trigger: spec.TriggerL2, Overrides: warm},
		"icfp-sb":   {Model: spec.ModelICFP, StoreBuffer: spec.SBLimited, Overrides: warm},
	}
	for name, m := range viaSpec {
		r, err := m.New()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := r.Run(w).Cycles
		want := direct[name].Run(w).Cycles
		if got != want {
			t.Errorf("%s: spec-built machine ran %d cycles, direct constructor %d", name, got, want)
		}
	}

	// ooo, including the CFP flag and the ROB override.
	oc := ooo.DefaultConfig()
	oc.Config = cfg
	oc.CFP = true
	oc.ROBEntries = 64
	want := ooo.New(oc).Run(w).Cycles
	m := spec.Machine{Model: spec.ModelOOO, CFP: true,
		Overrides: &spec.Overrides{Warmup: spec.Int(5_000), ROBEntries: spec.Int(64)}}
	r, err := m.New()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Run(w).Cycles; got != want {
		t.Errorf("ooo-cfp: spec-built machine ran %d cycles, direct constructor %d", got, want)
	}
}

func TestOverridesForRoundTrips(t *testing.T) {
	base := spec.BaseConfig()
	if ov, err := spec.OverridesFor(base); err != nil || ov != nil {
		t.Fatalf("OverridesFor(base) = (%+v, %v), want (nil, nil)", ov, err)
	}

	cfg := base
	cfg.WarmupInsts = 1_000
	cfg.Hier.L2HitLat = 35
	cfg.PoisonBits = 2
	cfg.NonBlockingRally = false
	ov, err := spec.OverridesFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Machine{Model: spec.ModelICFP, Overrides: ov}
	back, err := m.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Errorf("base + OverridesFor(cfg) != cfg:\n%+v\n%+v", back, cfg)
	}

	// A divergence no override expresses must be an error, not a silent
	// drop.
	bad := base
	bad.Hier.L1D.SizeBytes *= 2
	if _, err := spec.OverridesFor(bad); err == nil {
		t.Error("OverridesFor accepted a cache-geometry change no override expresses")
	}
	bad2 := base
	bad2.Trigger = pipeline.TriggerAll
	if _, err := spec.OverridesFor(bad2); err == nil {
		t.Error("OverridesFor accepted a trigger change (trigger rides on Machine, not Overrides)")
	}
}

func TestMergeOverrides(t *testing.T) {
	primary := &spec.Overrides{PoisonBits: spec.Int(1)}
	fallback := &spec.Overrides{PoisonBits: spec.Int(8), Warmup: spec.Int(500)}
	got := spec.Merge(primary, fallback)
	if *got.PoisonBits != 1 || *got.Warmup != 500 {
		t.Errorf("Merge = %+v, want primary's poison_bits and fallback's warmup", got)
	}
	if spec.Merge(nil, nil) != nil {
		t.Error("Merge(nil, nil) must stay nil")
	}
	if spec.Merge(&spec.Overrides{}, nil) != nil {
		t.Error("an all-unset Overrides must normalize to nil")
	}
	// Merge must not alias its inputs: mutating a merged cell in place
	// must leave both inputs untouched.
	*got.PoisonBits = 4
	*got.Warmup = 9
	if *primary.PoisonBits != 1 {
		t.Error("Merge aliased its primary input's pointer cells")
	}
	if *fallback.Warmup != 500 || *fallback.PoisonBits != 8 {
		t.Error("Merge aliased its fallback input's pointer cells")
	}
}

func TestValidateActionableErrors(t *testing.T) {
	cases := map[string]interface{ Validate() error }{
		"unknown model":        spec.Machine{Model: "icpf"},
		"no model":             spec.Machine{},
		"unknown trigger":      spec.Machine{Model: spec.ModelICFP, Trigger: "sometimes"},
		"trigger on in-order":  spec.Machine{Model: spec.ModelInOrder, Trigger: spec.TriggerAll},
		"sb on runahead":       spec.Machine{Model: spec.ModelRunahead, StoreBuffer: spec.SBIdeal},
		"cfp on icfp":          spec.Machine{Model: spec.ModelICFP, CFP: true},
		"rob on sltp":          spec.Machine{Model: spec.ModelSLTP, Overrides: &spec.Overrides{ROBEntries: spec.Int(64)}},
		"poison out of range":  spec.Machine{Model: spec.ModelICFP, Overrides: &spec.Overrides{PoisonBits: spec.Int(9)}},
		"width out of range":   spec.Machine{Model: spec.ModelInOrder, Overrides: &spec.Overrides{Width: spec.Int(0)}},
		"unknown benchmark":    spec.Workload{SPEC: "mcff", N: 1000},
		"zero n":               spec.Workload{SPEC: "mcf"},
		"hostile n":            spec.Workload{SPEC: "mcf", N: 1 << 31},
		"unknown scenario":     spec.Workload{Scenario: "zzz"},
		"scenario with n":      spec.Workload{Scenario: string(workload.ScenarioLoneL2), N: 5},
		"both spec & scenario": spec.Workload{SPEC: "mcf", N: 10, Scenario: string(workload.ScenarioLoneL2)},
		"empty workload":       spec.Workload{},
		"fuzz & spec":          spec.Workload{SPEC: "mcf", Fuzz: &spec.Fuzz{Seed: 1}, N: 10},
		"fuzz & scenario":      spec.Workload{Scenario: string(workload.ScenarioLoneL2), Fuzz: &spec.Fuzz{Seed: 1}},
		"fuzz knob too high":   spec.Workload{Fuzz: &spec.Fuzz{Seed: 1, SBPressure: 101}, N: 10},
		"fuzz knob negative":   spec.Workload{Fuzz: &spec.Fuzz{Seed: 1, MissCluster: -1}, N: 10},
		"fuzz zero n":          spec.Workload{Fuzz: &spec.Fuzz{Seed: 1}},
	}
	for name, v := range cases {
		if err := v.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, v)
		}
	}
	ok := spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerAll, StoreBuffer: spec.SBIdeal,
		Overrides: &spec.Overrides{PoisonBits: spec.Int(8), Warmup: spec.Int(0)}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid machine rejected: %v", err)
	}
}

func TestUnmarshalSuiteStrict(t *testing.T) {
	good := `{
  "name": "mini",
  "n": 1000,
  "warm": 100,
  "render": {"kind": "speedup"},
  "jobs": [
    {"name": "g/base", "machine": {"model": "in-order"}, "workload": {"spec": "mcf", "n": 1100}},
    {"name": "g/icfp", "machine": {"model": "icfp", "overrides": {"warmup": 100}}, "workload": {"spec": "mcf", "n": 1100}}
  ]
}`
	s, err := spec.UnmarshalSuite([]byte(good))
	if err != nil {
		t.Fatalf("valid suite rejected: %v", err)
	}
	if len(s.Jobs) != 2 || s.Name != "mini" {
		t.Fatalf("parsed suite = %+v", s)
	}

	for name, doc := range map[string]string{
		"typo'd machine field": strings.Replace(good, `"model": "icfp", "overrides"`, `"model": "icfp", "trigerr": "l2", "overrides"`, 1),
		"typo'd override":      strings.Replace(good, `"warmup": 100`, `"warmupp": 100`, 1),
		"unknown top field":    strings.Replace(good, `"name": "mini",`, `"name": "mini", "jobz": [],`, 1),
		"duplicate job names":  strings.Replace(good, `"g/icfp"`, `"g/base"`, 1),
		"out-of-range value": strings.Replace(good, `{"spec": "mcf", "n": 1100}}
  ]`, `{"spec": "mcf", "n": -4}}
  ]`, 1),
		"trailing garbage":     good + "{}",
		"builtin without name": strings.Replace(good, `{"kind": "speedup"}`, `{"kind": "builtin"}`, 1),
		"unknown render kind":  strings.Replace(good, `{"kind": "speedup"}`, `{"kind": "chart"}`, 1),
	} {
		if _, err := spec.UnmarshalSuite([]byte(doc)); err == nil {
			t.Errorf("%s: UnmarshalSuite accepted:\n%s", name, doc)
		}
	}
}

// TestFuzzWorkloadDecodesToError pins the daemon's panic barrier for
// the fuzz family: a user-authored suite with hostile fuzz knobs is
// rejected at UnmarshalSuite with a named error — it never reaches the
// generator, whose contract assumes a validated profile. A valid fuzz
// job decodes, canonicalizes (explicit zero knobs collapse to the
// omitted spelling) and generates.
func TestFuzzWorkloadDecodesToError(t *testing.T) {
	tmpl := `{
  "name": "f",
  "n": 1000,
  "jobs": [
    {"name": "j", "machine": {"model": "icfp"}, "workload": {"fuzz": %s, "n": 1000}}
  ]
}`
	for name, fz := range map[string]string{
		"knob above range": `{"seed": 3, "sb_pressure": 400}`,
		"knob below range": `{"seed": 3, "rally_starve": -2}`,
		"typo'd knob":      `{"seed": 3, "sb_presure": 50}`,
	} {
		doc := strings.Replace(tmpl, "%s", fz, 1)
		if _, err := spec.UnmarshalSuite([]byte(doc)); err == nil {
			t.Errorf("%s: UnmarshalSuite accepted hostile fuzz spec:\n%s", name, doc)
		}
	}

	good := strings.Replace(tmpl, "%s", `{"seed": 3, "branch_on_load": 90, "miss_cluster": 0}`, 1)
	s, err := spec.UnmarshalSuite([]byte(good))
	if err != nil {
		t.Fatalf("valid fuzz suite rejected: %v", err)
	}
	wl := s.Jobs[0].Workload
	if want := spec.FuzzWorkload(3, workload.FuzzKnobs{BranchOnLoad: 90}, 1000).Canonical(); wl.Canonical() != want {
		t.Errorf("explicit zero knob leaked into identity: %s vs %s", wl.Canonical(), want)
	}
	if w := wl.New(); w.Trace.Len() == 0 {
		t.Error("generated fuzz workload is empty")
	}
}

func TestSuiteMarshalRoundTripsBytes(t *testing.T) {
	s := spec.Suite{
		Name: "rt", Desc: "round trip", N: 2000, Warm: 100,
		Render: &spec.Render{Kind: spec.RenderSweep, Baseline: "base"},
		Jobs: []spec.Job{
			{Name: "base/10", Machine: spec.Machine{Model: spec.ModelInOrder, Overrides: &spec.Overrides{L2HitLat: spec.Int(10), Warmup: spec.Int(100)}}, Workload: spec.SPECWorkload("equake", 2100)},
			{Name: "icfp/10", Machine: spec.Machine{Model: spec.ModelICFP, Trigger: spec.TriggerAll, Overrides: &spec.Overrides{L2HitLat: spec.Int(10), Warmup: spec.Int(100)}}, Workload: spec.SPECWorkload("equake", 2100)},
		},
	}
	b1, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := spec.UnmarshalSuite(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("Marshal -> Unmarshal -> Marshal changed bytes:\n%s\n---\n%s", b1, b2)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("suite changed across the round trip:\n%+v\n%+v", s, back)
	}
}
