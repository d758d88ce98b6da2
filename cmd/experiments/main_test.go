package main_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"icfp/internal/dist"
	"icfp/internal/exp"
	"icfp/internal/obs"
	"icfp/internal/store"
)

// buildBinary compiles cmd/experiments once per test binary invocation.
var buildOnce struct {
	path string
	err  error
	done bool
}

func buildBinary(t *testing.T) string {
	t.Helper()
	if !buildOnce.done {
		buildOnce.done = true
		dir, err := os.MkdirTemp("", "experiments-test-*")
		if err != nil {
			buildOnce.err = err
		} else {
			bin := filepath.Join(dir, "experiments")
			out, err := exec.Command("go", "build", "-o", bin, "icfp/cmd/experiments").CombinedOutput()
			if err != nil {
				buildOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			} else {
				buildOnce.path = bin
			}
		}
	}
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildOnce.path != "" {
		os.RemoveAll(filepath.Dir(buildOnce.path))
	}
	os.Exit(code)
}

// tinyArgs matches the committed golden: the full registry at test-scale
// sample sizes.
var tinyArgs = []string{"-all", "-n", "2000", "-warm", "1000"}

// TestWorkersGolden is the acceptance pin for the distributed
// dispatcher: -all output is byte-identical to the committed
// single-process golden at every worker count, including the real
// subprocess fan-out path (self-exec'd -worker-stdio workers over
// stdio pipes).
func TestWorkersGolden(t *testing.T) {
	bin := buildBinary(t)
	for _, workers := range []int{0, 1, 2, 3} {
		runGolden(t, bin, "-workers", fmt.Sprint(workers))
	}
}

// storeKeys lists the record hashes a result store directory holds.
func storeKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, len(paths))
	for _, p := range paths {
		keys[strings.TrimSuffix(filepath.Base(p), ".json")] = true
	}
	return keys
}

// simulated returns the record hashes of the simulations a run's
// -run-summary file says actually ran (store hits record no span).
func simulated(t *testing.T, summary string) []string {
	t.Helper()
	raw, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, len(doc.Spans))
	for i, sp := range doc.Spans {
		hashes[i] = store.HashKey(exp.Key{Machine: sp.Machine, Workload: sp.Workload})
	}
	return hashes
}

// runGolden runs -all at the golden's sample sizes with extra flags and
// fails unless the output matches the committed golden.
func runGolden(t *testing.T, bin string, extra ...string) {
	t.Helper()
	want, err := os.ReadFile("testdata/golden_all_tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	args := append(append([]string{}, tinyArgs...), extra...)
	cmd := exec.Command(bin, args...)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("%v: output differs from the committed golden (simulator behaviour changed? regenerate testdata/golden_all_tiny.txt)", args)
	}
}

// TestDistributedStore pins the -workers / -store interplay: a
// distributed run persists every merged result and renders the golden,
// and a rerun over the same store renders it again while simulating
// nothing.
func TestDistributedStore(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	runGolden(t, bin, "-workers", "2", "-store", storeDir)
	if len(storeKeys(t, storeDir)) == 0 {
		t.Fatal("distributed run persisted no records")
	}
	summary := filepath.Join(dir, "rerun.json")
	runGolden(t, bin, "-workers", "2", "-store", storeDir, "-run-summary", summary)
	if n := len(simulated(t, summary)); n != 0 {
		t.Errorf("rerun over a complete store simulated %d jobs, want 0", n)
	}
}

// TestFlagValidation pins the usage-error paths: worker and pool counts
// that used to hang or misbehave are rejected up front with exit 2.
func TestFlagValidation(t *testing.T) {
	bin := buildBinary(t)
	for _, args := range [][]string{
		{"-all", "-parallel", "0"},
		{"-all", "-parallel", "-3"},
		{"-all", "-workers", "-1"},
		{"-all", "-n", "0"},
		{"-all", "-warm", "-1"},
		{},                                       // no experiments selected
		{"-spec", "whatever.json", "-fig5"},      // -spec excludes named experiments
		{"-spec", "whatever.json", "-n", "5000"}, // sample sizes come from the suite
		{"-describe", "fig6", "-fig5"},           // -describe emits one experiment
		{"-fig5", "-sample-interval", "1000"},    // -sample-* knobs refine -sample
		{"-spec", "whatever.json", "-sample"},    // sampling policies live in the suite
	} {
		cmd := exec.Command(bin, args...)
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("args %v: err = %v, want exit code 2", args, err)
		}
	}
}

// TestSampledRunReportsCI pins the -sample flag family end to end: a
// sampled run succeeds, reports confidence intervals in its cells, and
// the same selection in full mode reports none.
func TestSampledRunReportsCI(t *testing.T) {
	bin := buildBinary(t)
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-fig8", "-n", "20000", "-warm", "2000"}, extra...)
		cmd := exec.Command(bin, args...)
		var out, stderr bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
		}
		return out.String()
	}
	sampled := run("-sample")
	if !strings.Contains(sampled, "±") {
		t.Errorf("sampled run reports no confidence intervals:\n%s", sampled)
	}
	if full := run(); strings.Contains(full, "±") {
		t.Errorf("full run invented confidence intervals:\n%s", full)
	}
}

// TestInterruptedStoreRunResumes pins the persistence guarantee: a run
// interrupted by SIGINT dies by the signal (130 in a shell) and keeps
// every simulation it completed, because each is stored as it finishes;
// the rerun over the same store simulates none of them again and renders
// the golden. If the run finishes before the signal lands, the test
// skips rather than reporting a false failure.
func TestInterruptedStoreRunResumes(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	args := append(append([]string{}, tinyArgs...), "-parallel", "1", "-store", storeDir)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &bytes.Buffer{}
	cmd.Stderr = &bytes.Buffer{}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt as soon as the first record lands: mid-run, with
	// completed work on disk.
	for deadline := time.Now().Add(30 * time.Second); len(storeKeys(t, storeDir)) == 0; {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no record persisted within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil && !errors.Is(err, os.ErrProcessDone) {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Skip("run finished before the signal landed; nothing to observe")
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Fatalf("interrupted run: %v, want death by SIGINT", err)
	}

	before := storeKeys(t, storeDir)
	summary := filepath.Join(dir, "rerun.json")
	runGolden(t, bin, "-store", storeDir, "-run-summary", summary)
	for _, h := range simulated(t, summary) {
		if before[h] {
			t.Errorf("record %s was stored before the interrupt but simulated again", h)
		}
	}
	t.Logf("interrupted run kept %d completed simulations", len(before))
}

// TestDescribeSpecRoundTripGolden is the acceptance pin for the spec
// redesign: for every experiment in the registry,
// `-describe <name> | -spec /dev/stdin` produces byte-identical output
// to running the experiment directly. The pairs share one -store, so
// each simulation happens once across the whole test.
func TestDescribeSpecRoundTripGolden(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")

	list, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if len(names) < 10 {
		t.Fatalf("-list returned only %v", names)
	}

	for _, name := range names {
		direct := new(bytes.Buffer)
		cmd := exec.Command(bin, "-"+name, "-n", "2000", "-warm", "1000", "-store", storeDir)
		cmd.Stdout = direct
		cmd.Stderr = &bytes.Buffer{}
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: direct run: %v", name, err)
		}

		suite, err := exec.Command(bin, "-describe", name, "-n", "2000", "-warm", "1000").Output()
		if err != nil {
			t.Fatalf("%s: -describe: %v", name, err)
		}
		suitePath := filepath.Join(dir, name+".json")
		if err := os.WriteFile(suitePath, suite, 0o644); err != nil {
			t.Fatal(err)
		}
		viaSpec := new(bytes.Buffer)
		cmd = exec.Command(bin, "-spec", suitePath, "-store", storeDir)
		cmd.Stdout = viaSpec
		cmd.Stderr = &bytes.Buffer{}
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: -spec run: %v", name, err)
		}
		if !bytes.Equal(direct.Bytes(), viaSpec.Bytes()) {
			t.Errorf("%s: -spec output differs from the direct run:\n--- direct ---\n%s\n--- via spec ---\n%s",
				name, direct.String(), viaSpec.String())
		}
	}
}

// TestCustomSuiteExample exercises the checked-in user-authored suite:
// it must run cleanly (locally and with subprocess workers,
// byte-identically) and render the sweep it declares.
func TestCustomSuiteExample(t *testing.T) {
	bin := buildBinary(t)
	suitePath, err := filepath.Abs("../../examples/customsuite/suite.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-spec", suitePath}, extra...)
		cmd := exec.Command(bin, args...)
		var out, stderr bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
		}
		return out.String()
	}
	local := run()
	for _, marker := range []string{"icfp-trigger-l2-sweep", "iCFP-l2", "iCFP-all", "config"} {
		if !strings.Contains(local, marker) {
			t.Errorf("suite output missing %q:\n%s", marker, local)
		}
	}
	if workers2 := run("-workers", "2"); workers2 != local {
		t.Errorf("-workers 2 suite output differs from local:\n--- local ---\n%s\n--- workers ---\n%s", local, workers2)
	}
}

// TestSpecRejectsTypos pins the strict-decoding satellite end to end: a
// typo'd field fails the run with an actionable message instead of
// silently simulating the default machine.
func TestSpecRejectsTypos(t *testing.T) {
	bin := buildBinary(t)
	good, err := os.ReadFile("../../examples/customsuite/suite.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(good, []byte(`"trigger"`), []byte(`"trigerr"`), 1)
	if bytes.Equal(good, bad) {
		t.Fatal("test fixture: no trigger field to misspell")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-spec", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("typo'd suite: err = %v, want exit 1", err)
	}
	if !strings.Contains(stderr.String(), "trigerr") {
		t.Errorf("error does not name the typo'd field:\n%s", stderr.String())
	}
}

// TestCorruptStoreRecordFails pins the store's failure mode at the CLI:
// a record that no longer decodes fails the run with its path in the
// error, instead of being silently re-simulated or served.
func TestCorruptStoreRecordFails(t *testing.T) {
	bin := buildBinary(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	args := []string{"-fig8", "-n", "2000", "-warm", "1000", "-store", storeDir}
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	paths, err := filepath.Glob(filepath.Join(storeDir, "??", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no records to corrupt (err %v)", err)
	}
	if err := os.WriteFile(paths[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("corrupt record: err = %v, want exit 1\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), paths[0]) {
		t.Errorf("error does not name the corrupt record %s:\n%s", paths[0], stderr.String())
	}
}

// TestListStillWorks guards the registry listing against the CLI
// restructure.
func TestListStillWorks(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "fig5", "ablate"} {
		if !bytes.Contains(out, []byte(name)) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

// TestJSONExportWithWorkers pins that -json works through the
// distributed path and round-trips.
func TestJSONExportWithWorkers(t *testing.T) {
	bin := buildBinary(t)
	jsonPath := filepath.Join(t.TempDir(), "out.json")
	cmd := exec.Command(bin, "-fig8", "-n", "2000", "-warm", "1000", "-workers", "2", "-json", jsonPath)
	cmd.Stdout = &bytes.Buffer{}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var ex struct {
		N           int                        `json:"n"`
		Experiments map[string]json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.N != 2000 || len(ex.Experiments) != 1 {
		t.Errorf("export = n %d, %d experiments; want 2000 and 1", ex.N, len(ex.Experiments))
	}
}

// TestWorkerStdioRegisters pins the subprocess half of the one fleet
// shape: a -worker-stdio subprocess registers exactly as a TCP worker
// does, so AcceptWorker admits it (named by the coordinator's fallback,
// since the subprocess sends no name), and the same register frame with
// a skewed protocol version is refused with both versions named.
func TestWorkerStdioRegisters(t *testing.T) {
	bin := buildBinary(t)

	w, err := dist.Command("proc 0", bin, "-worker-stdio")
	if err != nil {
		t.Fatal(err)
	}
	admitted, err := dist.AcceptWorker(w.RW, w.Name)
	if err != nil {
		t.Fatalf("registering subprocess refused: %v", err)
	}
	if admitted.Name != "proc 0" {
		t.Errorf("admitted worker name = %q, want the fallback %q", admitted.Name, "proc 0")
	}
	// Closing stdin before init is a clean shutdown for the worker.
	if err := admitted.RW.Close(); err != nil {
		t.Errorf("worker exit after close: %v", err)
	}

	// Capture a real register frame, then replay it one version behind.
	w, err = dist.Command("proc 1", bin, "-worker-stdio")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := dist.ReadMessage(w.RW)
	w.RW.Close()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Type != dist.TypeRegister || reg.Proto != dist.ProtoVersion {
		t.Fatalf("first frame = %+v, want a register at v%d", reg, dist.ProtoVersion)
	}
	skew := *reg
	skew.Proto--
	coordEnd, workerEnd := dist.Pipe()
	reply := make(chan *dist.Message, 1)
	go func() {
		dist.WriteMessage(workerEnd, &skew)
		m, _ := dist.ReadMessage(workerEnd)
		reply <- m
	}()
	_, err = dist.AcceptWorker(coordEnd, "skewed")
	old, cur := fmt.Sprintf("v%d", skew.Proto), fmt.Sprintf("v%d", dist.ProtoVersion)
	if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), cur) {
		t.Errorf("skewed register = %v, want a refusal naming %s and %s", err, old, cur)
	}
	if m := <-reply; m == nil || m.Type != dist.TypeError || !strings.Contains(m.Err, old) || !strings.Contains(m.Err, cur) {
		t.Errorf("skewed worker got %+v, want an error frame naming %s and %s", m, old, cur)
	}
}
