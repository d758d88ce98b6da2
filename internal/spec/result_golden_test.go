package spec_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"icfp/internal/pipeline"
	"icfp/internal/spec"
)

var updateResultGolden = flag.Bool("update", false, "rewrite testdata/result_golden.json from this run")

// resultGoldenPath pins every field of pipeline.Result for each machine
// a spec can name. The sim golden and the fuzzgate corpus pin only
// cycles and instructions, and the -all golden prints rounded text, so
// this file is what catches a drift in a per-KI rate, an MLP, a rally
// rate or a store-buffer statistic.
const resultGoldenPath = "testdata/result_golden.json"

// goldenRun is one pinned (machine, workload) pair and its Result.
type goldenRun struct {
	Machine  spec.Machine    `json:"machine"`
	Workload spec.Workload   `json:"workload"`
	Result   pipeline.Result `json:"result"`
}

// TestResultGolden runs every model on one SPEC profile, once in full
// and once under interval sampling with a detailed-warming ramp (so each
// window starts before its measured range and the measurement crossing
// is exercised), and compares the full Result JSON with the committed
// golden. Regenerate with `go test ./internal/spec -run TestResultGolden
// -update` only for an intended behaviour change.
func TestResultGolden(t *testing.T) {
	warm := &spec.Overrides{Warmup: spec.Int(20_000)}
	machines := []spec.Machine{
		{Model: spec.ModelInOrder, Overrides: warm},
		{Model: spec.ModelRunahead, Overrides: warm},
		{Model: spec.ModelMultipass, Overrides: warm},
		{Model: spec.ModelSLTP, Overrides: warm},
		{Model: spec.ModelICFP, Overrides: warm},
		{Model: spec.ModelICFP, StoreBuffer: spec.SBLimited, Overrides: warm},
		{Model: spec.ModelOOO, Overrides: warm},
	}
	full := spec.SPECWorkload("ammp", 100_000)
	sampled := full
	sampled.Sampling = &spec.Sampling{Mode: spec.ModeSampled, Interval: 5_000, Period: 20_000, Ramp: 2_000, Seed: 3}
	trace := full.New()

	var runs []goldenRun
	for _, wl := range []spec.Workload{full, sampled} {
		for _, m := range machines {
			r, err := m.New()
			if err != nil {
				t.Fatal(err)
			}
			var res pipeline.Result
			if wl.Sampling != nil {
				res = r.RunSampled(trace, wl.Sampling.Policy())
			} else {
				res = r.Run(trace)
			}
			runs = append(runs, goldenRun{Machine: m, Workload: wl, Result: res})
		}
	}
	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateResultGolden {
		if err := os.MkdirAll(filepath.Dir(resultGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultGoldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		var old []goldenRun
		if err := json.Unmarshal(want, &old); err != nil || len(old) != len(runs) {
			t.Fatalf("golden %s unreadable or of another shape; the Result JSON changed", resultGoldenPath)
		}
		for i := range runs {
			if runs[i].Result != old[i].Result {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", runs[i].Machine.Canonical(), runs[i].Workload.Canonical(), runs[i].Result, old[i].Result)
			}
		}
		t.Fatalf("Result JSON differs from %s", resultGoldenPath)
	}
}
