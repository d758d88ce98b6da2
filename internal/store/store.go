// Package store is the persistent, content-addressed simulation result
// store behind every front end that keeps results across processes: the
// expq service (internal/serve, cmd/expq) and the -store flag of
// cmd/experiments and cmd/expd. Each completed simulation is one record
// on disk, addressed by the SHA-256 of its canonical (machine, workload)
// spec pair — the same collision-free identity internal/exp memoizes
// on and internal/dist ships over the wire — in a two-level fanout
// directory layout, so any number of processes can read and append
// concurrently without ever rewriting a shared file.
//
// Writes are atomic (unique temp file, fsync, rename): a crash leaves
// either no record or a complete one, never a torn file, and concurrent
// writers of one key cannot clobber each other mid-write. Identity is
// enforced optimistically: simulations are deterministic pure functions
// of their specs, so two writers of one key must produce byte-identical
// results — the first writer wins and later identical Puts are no-ops,
// while a byte-level result difference is a *ConflictError* (a
// determinism violation, never to be papered over). The store is
// bounded: with a positive MaxBytes, least-recently-accessed records are
// evicted after each Put (Get refreshes a record's access time), so a
// long-lived daemon's disk footprint stays under the knob.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"icfp/internal/exp"
	"icfp/internal/obs"
	"icfp/internal/spec"
)

// RecordVersion identifies the on-disk record schema, the one persisted
// result format of this repository. Records embed the exp.CachedResult
// layout (machine, workload, result, elapsed_ns) and follow the
// additive-fields versioning rules of docs/ARCHITECTURE.md: new
// optional fields do not bump the version, re-keyings do.
const RecordVersion = 1

// record is the on-disk layout of one result file.
type record struct {
	Version int `json:"version"`
	exp.CachedResult
}

// ConflictError reports a Put whose key already holds a byte-different
// result: two simulators disagreed about a deterministic function. This
// is fatal by design — serving either record would silently corrupt
// someone's results — so callers must surface it, not retry it.
type ConflictError struct {
	Path              string
	Machine, Workload string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("store: result conflict for (%s | %s): %s already holds a byte-different result (determinism violation — delete the store only after finding the divergent simulator)",
		e.Machine, e.Workload, e.Path)
}

// Options configure an opened store.
type Options struct {
	// MaxBytes bounds the store's total record bytes: after each Put,
	// least-recently-accessed records are evicted until the total is
	// back under the bound. Zero means unbounded.
	MaxBytes int64
}

// recMeta is the in-memory index entry of one on-disk record.
type recMeta struct {
	size   int64
	access time.Time
}

// Store is one on-disk result store. It is safe for concurrent use by
// multiple goroutines, and the on-disk format is safe for concurrent
// use by multiple processes (atomic per-record writes; the in-memory
// byte accounting of other processes' records refreshes lazily as keys
// are read).
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	recs  map[string]recMeta // hash → size and last access
	bytes int64

	// Telemetry (Instrument); every method on the nil zero values is a
	// no-op, so an uninstrumented store pays one nil check per event.
	hits, misses, puts, evictions *obs.Counter
}

// Open opens (creating if needed) the store rooted at dir and indexes
// its existing records.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: opts.MaxBytes, recs: make(map[string]recMeta)}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Instrument attaches a metrics registry: expq_store_hits_total /
// expq_store_misses_total (Get outcomes), expq_store_puts_total (new
// records written), expq_store_evictions_total, and the
// expq_store_bytes / expq_store_records gauges. A nil registry detaches.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits = reg.Counter("expq_store_hits_total", "store lookups answered from a persisted record")
	s.misses = reg.Counter("expq_store_misses_total", "store lookups that found no record")
	s.puts = reg.Counter("expq_store_puts_total", "new records written to the store")
	s.evictions = reg.Counter("expq_store_evictions_total", "records evicted to stay under the byte bound")
	reg.GaugeFunc("expq_store_bytes", "total bytes of persisted result records", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.bytes)
	})
	reg.GaugeFunc("expq_store_records", "persisted result records", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.recs))
	})
}

// HashKey returns the content address of a simulation: the SHA-256 hex
// digest of its canonical machine and workload encodings. Equal keys
// construct identical simulations (the spec package's contract), so the
// hash is a collision-free record identity.
func HashKey(k exp.Key) string {
	h := sha256.New()
	h.Write([]byte(k.Machine))
	h.Write([]byte{0}) // unambiguous split: canonical JSON never contains NUL
	h.Write([]byte(k.Workload))
	return hex.EncodeToString(h.Sum(nil))
}

// pathFor returns the record file of a hash: a two-hex-character fanout
// directory (256-way, so even millions of records keep directory
// listings small) holding one JSON file per record.
func (s *Store) pathFor(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// scan indexes the records already on disk.
func (s *Store) scan() error {
	fanouts, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	for _, fan := range fanouts {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(s.dir, fan.Name()))
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", filepath.Join(s.dir, fan.Name()), err)
		}
		for _, ent := range ents {
			name := ent.Name()
			if filepath.Ext(name) != ".json" {
				continue
			}
			info, err := ent.Info()
			if err != nil {
				continue // raced with another process's eviction
			}
			s.recs[name[:len(name)-len(".json")]] = recMeta{size: info.Size(), access: info.ModTime()}
			s.bytes += info.Size()
		}
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Bytes returns the total indexed record bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Get returns the persisted result for k, if the store has one, and
// refreshes the record's access time (the LRU clock eviction runs on).
// A record another process evicted since it was indexed reads as a
// plain miss.
func (s *Store) Get(k exp.Key) (exp.CachedResult, bool, error) {
	hash := HashKey(k)
	path := s.pathFor(hash)
	rec, size, err := readRecord(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.mu.Lock()
			s.dropLocked(hash)
			s.mu.Unlock()
			s.misses.Inc()
			return exp.CachedResult{}, false, nil
		}
		return exp.CachedResult{}, false, err
	}
	if rec.Machine != k.Machine || rec.Workload != k.Workload {
		return exp.CachedResult{}, false, fmt.Errorf("store: %s holds (%s | %s), wanted (%s | %s) — hash collision or corrupted record",
			path, rec.Machine, rec.Workload, k.Machine, k.Workload)
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best effort: a failed bump only ages the record early
	s.mu.Lock()
	if old, ok := s.recs[hash]; ok {
		s.bytes += size - old.size
	} else {
		s.bytes += size // another process wrote it since our scan
	}
	s.recs[hash] = recMeta{size: size, access: now}
	s.mu.Unlock()
	s.hits.Inc()
	return rec.CachedResult, true, nil
}

// readRecord reads and decodes one record file.
func readRecord(path string) (record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, 0, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return record{}, 0, fmt.Errorf("store: decoding %s: %w", path, err)
	}
	if rec.Version != RecordVersion {
		return record{}, 0, fmt.Errorf("store: %s is record schema v%d, this build reads v%d", path, rec.Version, RecordVersion)
	}
	return rec, int64(len(data)), nil
}

// resultBytes is the comparable identity of a stored result: its JSON
// encoding. pipeline.Result round-trips JSON exactly (the property the
// whole distributed design rests on), so byte equality here is result
// equality. ElapsedNS is deliberately excluded — it describes the host
// that ran the simulation, not the simulation.
func resultBytes(r exp.CachedResult) []byte {
	b, err := json.Marshal(r.R)
	if err != nil {
		panic(fmt.Sprintf("store: encoding result for (%s | %s): %v", r.Machine, r.Workload, err))
	}
	return b
}

// Put persists one completed simulation. If the key already holds a
// record with the identical result, the first writer wins and Put is a
// no-op (the existing record, including its recorded elapsed time, is
// kept). If the existing result differs byte-for-byte, Put returns a
// *ConflictError — deterministic simulations cannot disagree, so the
// store refuses to pick a side. After a new record lands, eviction
// brings the store back under its byte bound.
func (s *Store) Put(r exp.CachedResult) error {
	_, err := s.put(r)
	return err
}

// put is Put, also reporting whether it wrote a new record.
func (s *Store) put(r exp.CachedResult) (bool, error) {
	hash := HashKey(exp.Key{Machine: r.Machine, Workload: r.Workload})
	path := s.pathFor(hash)
	if existing, size, err := readRecord(path); err == nil {
		if string(resultBytes(existing.CachedResult)) != string(resultBytes(r)) {
			return false, &ConflictError{Path: path, Machine: r.Machine, Workload: r.Workload}
		}
		s.mu.Lock()
		if _, ok := s.recs[hash]; !ok {
			s.bytes += size
		}
		s.recs[hash] = recMeta{size: size, access: time.Now()}
		s.mu.Unlock()
		return false, nil
	} else if !os.IsNotExist(err) {
		return false, err
	}

	data, err := json.MarshalIndent(record{Version: RecordVersion, CachedResult: r}, "", "  ")
	if err != nil {
		return false, fmt.Errorf("store: encoding record for %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := writeAtomic(path, data); err != nil {
		return false, err
	}
	s.puts.Inc()
	s.mu.Lock()
	if old, ok := s.recs[hash]; ok {
		s.bytes -= old.size
	}
	s.recs[hash] = recMeta{size: int64(len(data)), access: time.Now()}
	s.bytes += int64(len(data))
	evict := s.evictablesLocked()
	s.mu.Unlock()
	for _, h := range evict {
		s.remove(h)
	}
	return true, nil
}

// Fill pre-fills cache with the store's records for the plan's
// simulations and returns the plan entries the store holds no record
// for — the work that still has to run. A record that cannot be read
// (corrupt, or another schema) fails the fill with its path in the
// error.
func (s *Store) Fill(cache *exp.Cache, plan []spec.Job) ([]spec.Job, error) {
	var hits []exp.CachedResult
	var missing []spec.Job
	for _, sj := range plan {
		rec, ok, err := s.Get(exp.KeyOf(sj))
		if err != nil {
			return nil, err
		}
		if ok {
			hits = append(hits, rec)
		} else {
			missing = append(missing, sj)
		}
	}
	cache.AddResults(hits)
	return missing, nil
}

// Persist returns a completion hook, for exp.OnRun on the local pool or
// dist.Options.OnMerge on a fleet, that Puts each simulation of cache as
// it completes, so an interrupted run loses only its in-flight work. The
// hook is safe for concurrent calls; failed reports the first Put error.
func (s *Store) Persist(cache *exp.Cache) (hook func(exp.Key), failed func() error) {
	var mu sync.Mutex
	var first error
	hook = func(k exp.Key) {
		res, ok := cache.Lookup(k)
		if !ok {
			return
		}
		rec := exp.CachedResult{Machine: k.Machine, Workload: k.Workload, R: res}
		if d, ok := cache.Elapsed(k); ok {
			rec.ElapsedNS = int64(d)
		}
		if err := s.Put(rec); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	}
	failed = func() error {
		mu.Lock()
		defer mu.Unlock()
		return first
	}
	return hook, failed
}

// writeAtomic writes data to path via a unique fsynced temp file and a
// rename, creating the fanout directory on the way: concurrent writers
// never see each other's work in progress, and a crash leaves either no
// record or a complete one. Every error names the destination path.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating record directory for %s: %w", path, err)
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp record for %s: %w", path, err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		// CreateTemp makes the file 0600; records are shareable data.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing record %s: %w", path, err)
	}
	return nil
}

// evictablesLocked picks the least-recently-accessed records to drop
// until the store is back under its byte bound; the caller holds mu and
// performs the removals after releasing it. The newest record always
// survives, so a single result larger than the bound still persists.
func (s *Store) evictablesLocked() []string {
	if s.maxBytes <= 0 {
		return nil
	}
	var out []string
	for s.bytes > s.maxBytes && len(s.recs) > 1 {
		var oldest string
		var oldestAt time.Time
		for h, m := range s.recs {
			if oldest == "" || m.access.Before(oldestAt) {
				oldest, oldestAt = h, m.access
			}
		}
		out = append(out, oldest)
		s.bytes -= s.recs[oldest].size
		delete(s.recs, oldest)
	}
	return out
}

// remove deletes one record file (already dropped from the index).
func (s *Store) remove(hash string) {
	os.Remove(s.pathFor(hash)) // ENOENT means another process got there first
	s.evictions.Inc()
}

// dropLocked forgets an index entry whose file is gone (evicted by
// another process); the caller holds mu.
func (s *Store) dropLocked(hash string) {
	if m, ok := s.recs[hash]; ok {
		s.bytes -= m.size
		delete(s.recs, hash)
	}
}

// ImportSnapshot is the one-way migration from the retired
// `-cache-file` snapshots: it reads a schema-v2 snapshot (one JSON
// document of {"version": 2, "entries": [CachedResult...]}) and persists
// every entry, returning how many records it newly wrote (entries already
// in the store are first-writer-wins no-ops, and records evicted by
// MaxBytes during the import still count as written). A snapshot of any
// other schema, including the unversioned fingerprint-keyed format whose
// entries cannot be re-keyed, is an error, not a silent partial import.
func (s *Store) ImportSnapshot(path string) (int, error) {
	const snapshotVersion = 2
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var snap struct {
		Version int                `json:"version"`
		Entries []exp.CachedResult `json:"entries"`
	}
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return 0, fmt.Errorf("store: importing %s: decoding snapshot: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("store: importing %s: snapshot schema v%d (0 is the unversioned fingerprint-keyed format), only v%d can be imported",
			path, snap.Version, snapshotVersion)
	}
	n := 0
	for _, r := range snap.Entries {
		wrote, err := s.put(r)
		if err != nil {
			return n, fmt.Errorf("store: importing %s: %w", path, err)
		}
		if wrote {
			n++
		}
	}
	return n, nil
}
