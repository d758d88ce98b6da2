package main_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadInputs pins that inputs the spec (or the flag contract)
// rejects exit 2 with an error instead of panicking or simulating a
// nonsensical machine, and that every spec model name is accepted.
func TestRejectsBadInputs(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "icfpsim")
	if out, err := exec.Command("go", "build", "-o", bin, "icfp/cmd/icfpsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (int, string) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), stderr.String()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0, stderr.String()
	}

	for _, tc := range []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown bench", []string{"-bench", "nosuch"}, `unknown SPEC benchmark "nosuch"`},
		{"zero length", []string{"-n", "0", "-warm", "0"}, "-n 0"},
		{"negative l2 latency", []string{"-l2lat", "-5", "-n", "1000", "-warm", "1000"}, "l2_hit_lat=-5"},
		{"negative length", []string{"-n", "-5"}, "-n -5"},
		{"old model name", []string{"-model", "inorder", "-n", "1000", "-warm", "1000"}, `unknown model "inorder"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := run(tc.args...)
			if strings.Contains(stderr, "panic:") {
				t.Fatalf("panicked:\n%s", stderr)
			}
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit 2 mentioning %q", code, stderr, tc.want)
			}
		})
	}

	for _, model := range []string{"in-order", "ooo"} {
		if code, stderr := run("-model", model, "-n", "2000", "-warm", "1000", "-baseline"); code != 0 {
			t.Errorf("-model %s: exit %d\n%s", model, code, stderr)
		}
	}
}
