package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes make every workload run in seconds: the golden's size for
// paper-all and a sampled fig5s still long enough to sample.
var tinySizes = sizes{
	paperN: 2000, paperWarm: 1000,
	sampledN: 1000, sampledWarm: 1000,
}

// tinyRun runs one workload at tiny sizes and returns its result and
// human-readable report.
func tinyRun(t *testing.T, workload string, trace bool, corrupt func([]byte) []byte) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(config{
		workload: workload, seed: 7, seconds: time.Second, trace: trace,
		size: tinySizes, root: "..", scratch: t.TempDir(), workers: 2,
		corrupt: corrupt, out: &out,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return e2e, perLayer
}

// TestEveryMetricPrinted smokes each workload in both modes: the result
// line carries exactly the declared metrics with their units, each is
// printed by name and unit in the report, and every check passes.
func TestEveryMetricPrinted(t *testing.T) {
	e2e, perLayer := benchmarkSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, report := tinyRun(t, w, trace, nil)
			want := e2e
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, report)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, name, m, unit)
					continue
				}
				if !strings.Contains(report, name+" ") || !strings.Contains(report, " "+unit+"\n") {
					t.Errorf("%s trace=%v: report does not print %s with its unit %s", w, trace, name, unit)
				}
			}
			if !strings.Contains(report, "seed 7") {
				t.Errorf("%s trace=%v: report does not print the seed", w, trace)
			}
		}
	}
}

// TestCorruptedOutputCounted corrupts one pass's report and requires the
// digest check to count it in failed and failed_share.
func TestCorruptedOutputCounted(t *testing.T) {
	calls := 0
	corruptThird := func(b []byte) []byte {
		calls++
		if calls != 3 { // 1: the golden render, 2: pass 0, 3: pass 1
			return b
		}
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 1
		return c
	}
	res, report := tinyRun(t, "paper-all", true, corruptThird)
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failed check\n%s", res.Correct, res.Failed, report)
	}
	if share := res.Metrics["failed_share"].Value; share <= 0 {
		t.Errorf("failed_share = %v, want > 0", share)
	}
	if !strings.Contains(report, "CHECK FAILED") {
		t.Errorf("the failed check is not reported\n%s", report)
	}
}

// TestServiceChecksResponses corrupts every service response and
// requires each warm response check to fail.
func TestServiceChecksResponses(t *testing.T) {
	flip := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		if len(c) > 0 {
			c[0] ^= 1
		}
		return c
	}
	res, report := tinyRun(t, "service-mixed", false, flip)
	if res.Correct || res.Failed < res.Attempted/2 {
		t.Fatalf("correct=%v failed=%d of %d, want most checks failed\n%s", res.Correct, res.Failed, res.Attempted, report)
	}
}

// TestREADMEFailureCauses requires a failed README-shape submission to
// count as the known defect only when its error is a recorded cause: any
// other error on the same shape counts in failed.
func TestREADMEFailureCauses(t *testing.T) {
	cfg := config{seed: 7, workers: 2}
	sub, err := readmeSuite(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		err           string
		failed, known int
	}{
		{`serve: daemon: dist: job ({"model":"in-order"} | {"fuzz":{"sb_pressure":85,"seed":12},"n":60000}) failed on its 3th dispatch, last worker pipe-1: EOF`, 0, 1},
		{`store: put: json: unsupported value: NaN`, 0, 1},
		{`serve: daemon: context deadline exceeded`, 1, 0},
		{`serve: daemon: dist: job ({"model":"icfp"} | {"fuzz":{"sb_pressure":85,"seed":12},"n":60000}) failed on its 3th dispatch, last worker pipe-0: EOF`, 1, 0},
	} {
		chk := &checks{rep: newReport(&bytes.Buffer{})}
		if err := checkResponse(cfg, &outcome{sub: sub, err: errors.New(tc.err)}, chk); err != nil {
			t.Fatal(err)
		}
		if chk.failed != tc.failed || chk.known != tc.known || chk.attempted != 1 {
			t.Errorf("%s: failed=%d known=%d attempted=%d, want failed=%d known=%d attempted=1",
				tc.err, chk.failed, chk.known, chk.attempted, tc.failed, tc.known)
		}
	}
}

// TestModuleOf checks the profile grouping of function
// names into modules.
func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"icfp/internal/icfp.(*Core).Run":               "icfp",
		"icfp/internal/exp/registry.Report":            "registry",
		"icfp/internal/exp.Run.func1":                  "exp",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"encoding/json.(*decodeState).object":          "encoding_json",
		"syscall.Syscall6":                             "other",
		"icfp/internal/memimage.(*Image).Write64":      "memimage",
		"icfp/cmd/internal/cliutil.SecurityFlags":      "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
