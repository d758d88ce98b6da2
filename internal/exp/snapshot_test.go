package exp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/sim"
	"icfp/internal/spec"
	"icfp/internal/store"
	"icfp/internal/workload"
)

// TestSnapshotDeterministicOrder pins that a snapshot's entry order does
// not depend on map iteration, so everything built from it (perfbench's
// store probes, test fixtures) is reproducible.
func TestSnapshotDeterministicOrder(t *testing.T) {
	c := exp.NewCache()
	jobs := []exp.Job{
		planJob("z", sim.ICFP, workload.ScenarioChains),
		planJob("y", sim.InOrder, workload.ScenarioChains),
		planJob("x", sim.InOrder, workload.ScenarioLoneL2),
	}
	if _, err := exp.Run(jobs, exp.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.Machine > b.Machine || (a.Machine == b.Machine && a.Workload > b.Workload) {
			t.Errorf("snapshot not sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

// Schema-v2 snapshots (the retired -cache-file format: one JSON document
// of {"version": 2, "entries": [CachedResult...]}) are now read only by
// store.ImportSnapshot. The tests below pin that reader's schema rules
// for the CachedResult entries defined here.

// legacyV2Snapshot is a one-entry v2 snapshot written before sampling
// existed: its result lacks the additive SampleIntervals/SampleCPICI95
// fields.
func legacyV2Snapshot() (string, exp.Key) {
	k := exp.Key{
		Machine:  spec.Machine{Model: spec.ModelInOrder}.Canonical(),
		Workload: spec.SPECWorkload("mcf", 1000).Canonical(),
	}
	return fmt.Sprintf(
		`{"version":2,"entries":[{"machine":%q,"workload":%q,"result":{"Name":"mcf","Cycles":2000,"Insts":1000},"elapsed_ns":7}]}`,
		k.Machine, k.Workload), k
}

// importSnapshot writes body to a file and imports it into a fresh store.
func importSnapshot(t *testing.T, body string) (*store.Store, string, int, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.ImportSnapshot(path)
	return s, path, n, err
}

// rejectSnapshot asserts that importing body fails loudly: an error that
// names the file, and nothing written.
func rejectSnapshot(t *testing.T, what, body string) {
	t.Helper()
	s, path, n, err := importSnapshot(t, body)
	if err == nil || n != 0 || s.Len() != 0 {
		t.Errorf("%s snapshot: imported %d (store has %d), err %v; want a rejection", what, n, s.Len(), err)
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("%s snapshot: error %q does not name %s", what, err, path)
	}
}

// TestLegacyV2SnapshotLoads pins schema compatibility: a v2 snapshot
// written before sampling existed still loads, and the new fields read
// zero — exactly the "additive fields only within a version" rule
// docs/ARCHITECTURE.md commits to.
func TestLegacyV2SnapshotLoads(t *testing.T) {
	body, k := legacyV2Snapshot()
	s, _, n, err := importSnapshot(t, body)
	if err != nil || n != 1 {
		t.Fatalf("import = %d, %v; want 1 entry", n, err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("legacy entry not reachable under its canonical key: ok=%v err=%v", ok, err)
	}
	c := exp.NewCache()
	c.AddResults([]exp.CachedResult{got})
	r, ok := c.Lookup(k)
	if !ok || r.Cycles != 2000 || r.Insts != 1000 || got.ElapsedNS != 7 {
		t.Fatalf("legacy result corrupted: %+v (elapsed %d)", r, got.ElapsedNS)
	}
	if r.SampleIntervals != 0 || r.SampleCPICI95 != 0 {
		t.Fatalf("legacy result invented sampling statistics: %+v", r)
	}
}

// TestLoadCacheFileRejectsGarbage pins the error path for corrupt files.
func TestLoadCacheFileRejectsGarbage(t *testing.T) {
	rejectSnapshot(t, "garbage", "not json")
}

// TestLoadCacheFileRejectsTruncated pins the error path for a snapshot
// cut off mid-write: it must be rejected rather than load a silently
// incomplete result set.
func TestLoadCacheFileRejectsTruncated(t *testing.T) {
	body, _ := legacyV2Snapshot()
	rejectSnapshot(t, "truncated", body[:len(body)/2])
}

// TestSnapshotVersionMismatch pins the schema-versioning contract: a
// pre-spec (unversioned, fingerprint-keyed) snapshot, whose entries
// cannot be re-keyed, and a future-versioned one are both rejected
// whole, not partially imported.
func TestSnapshotVersionMismatch(t *testing.T) {
	rejectSnapshot(t, "legacy", `{"entries":[{"machine":"iCFP","config":"00f0ba41cafe0000","workload":"spec:mcf:n=3000","result":{"Cycles":123}}]}`)
	rejectSnapshot(t, "future", `{"version": 99, "entries": []}`)
}
