package cache

import (
	"math/rand"
	"testing"
)

// refCache is the tag array as a slice of per-set line structs, each way
// carrying its own flags and LRU stamp. The packed production cache must
// agree with it on every observable: return values, statistics and
// eviction reports.
type refCache struct {
	sets      [][]refLine
	setMask   uint64
	lineShift uint
	lineBytes int
	clock     uint64
	victim    []victimLine // oldest first
	victimCap int

	Hits, Misses, VictimHits uint64
}

type refLine struct {
	tag                uint64
	valid, dirty, spec bool
	used               uint64
}

func newRefCache(cfg Config) *refCache {
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	r := &refCache{setMask: uint64(numSets - 1), lineBytes: cfg.LineBytes, victimCap: cfg.VictimEntries}
	for 1<<r.lineShift != cfg.LineBytes {
		r.lineShift++
	}
	r.sets = make([][]refLine, numSets)
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Assoc)
	}
	return r
}

func (r *refCache) clone() *refCache {
	cl := *r
	cl.sets = make([][]refLine, len(r.sets))
	for i := range r.sets {
		cl.sets[i] = append([]refLine(nil), r.sets[i]...)
	}
	cl.victim = append([]victimLine(nil), r.victim...)
	return &cl
}

func (r *refCache) lineAddr(addr uint64) uint64 { return addr &^ uint64(r.lineBytes-1) }
func (r *refCache) set(addr uint64) []refLine   { return r.sets[(addr>>r.lineShift)&r.setMask] }

func (r *refCache) find(addr uint64) *refLine {
	tag, set := addr>>r.lineShift, r.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) victimIndex(addr uint64) int {
	la := r.lineAddr(addr)
	for i, v := range r.victim {
		if v.lineAddr == la {
			return i
		}
	}
	return -1
}

func (r *refCache) Lookup(addr uint64, write bool) bool {
	r.clock++
	if l := r.find(addr); l != nil {
		l.used = r.clock
		l.dirty = l.dirty || write
		r.Hits++
		return true
	}
	if i := r.victimIndex(addr); i >= 0 {
		dirty := r.victim[i].dirty
		r.victim = append(r.victim[:i], r.victim[i+1:]...)
		r.insertLine(addr, dirty || write, false)
		r.VictimHits++
		r.Hits++
		return true
	}
	r.Misses++
	return false
}

func (r *refCache) Probe(addr uint64) bool { return r.find(addr) != nil || r.victimIndex(addr) >= 0 }

func (r *refCache) MarkSpeculative(addr uint64) bool {
	if l := r.find(addr); l != nil {
		l.spec, l.dirty = true, true
		return true
	}
	return false
}

func (r *refCache) insertLine(addr uint64, dirty, spec bool) (evicted uint64, dirtyEvict bool) {
	tag, set := addr>>r.lineShift, r.set(addr)
	r.clock++
	if l := r.find(addr); l != nil {
		l.used = r.clock
		l.dirty = l.dirty || dirty
		l.spec = l.spec || spec
		return 0, false
	}
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := range set {
			if set[i].used < set[vi].used {
				vi = i
			}
		}
		ev := victimLine{set[vi].tag << r.lineShift, set[vi].dirty}
		if r.victimCap > 0 {
			if len(r.victim) == r.victimCap {
				evicted, dirtyEvict = r.victim[0].lineAddr, r.victim[0].dirty
				r.victim = r.victim[1:]
			}
			r.victim = append(r.victim, ev)
		} else {
			evicted, dirtyEvict = ev.lineAddr, ev.dirty
		}
	}
	set[vi] = refLine{tag: tag, valid: true, dirty: dirty, spec: spec, used: r.clock}
	return evicted, dirtyEvict
}

func (r *refCache) Invalidate(addr uint64) bool {
	if l := r.find(addr); l != nil {
		l.valid = false
		return true
	}
	if i := r.victimIndex(addr); i >= 0 {
		r.victim = append(r.victim[:i], r.victim[i+1:]...)
		return true
	}
	return false
}

func (r *refCache) speculative(flush bool) int {
	n := 0
	for _, set := range r.sets {
		for i := range set {
			if set[i].valid && set[i].spec {
				set[i].spec = false
				set[i].valid = set[i].valid && !flush
				n++
			}
		}
	}
	return n
}

func (r *refCache) Reset() {
	for _, set := range r.sets {
		clear(set)
	}
	r.victim = r.victim[:0]
	r.clock, r.Hits, r.Misses, r.VictimHits = 0, 0, 0, 0
}

// TestPackedCacheMatchesReference drives the packed cache and the
// per-line reference with the same random operation sequences over
// geometries with and without victim buffers (including non-power-of-two
// associativity), on an address range small enough to force conflict
// evictions, victim-buffer hits and speculative flushes, and requires
// identical results after every operation — across Clone, too.
func TestPackedCacheMatchesReference(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 1024, Assoc: 2, LineBytes: 64},
		{SizeBytes: 2048, Assoc: 4, LineBytes: 64, VictimEntries: 3},
		{SizeBytes: 768, Assoc: 3, LineBytes: 64, VictimEntries: 2},
		{SizeBytes: 256, Assoc: 1, LineBytes: 8, VictimEntries: 1},
		{SizeBytes: 4096, Assoc: 8, LineBytes: 128, VictimEntries: 4},
	}
	for ci, cfg := range cfgs {
		rng := rand.New(rand.NewSource(int64(ci) + 11))
		c, r := New(cfg), newRefCache(cfg)
		span := uint64(cfg.SizeBytes * 3)
		victimHits := uint64(0) // summed across Resets
		for i := 0; i < 40_000; i++ {
			addr := uint64(rng.Int63n(int64(span)))
			if rng.Intn(8) == 0 {
				addr |= 1 << 40 // far aliases of the same sets
			}
			write := rng.Intn(3) == 0
			var got, want any
			switch op := rng.Intn(100); {
			case op < 45:
				got, want = c.Lookup(addr, write), r.Lookup(addr, write)
			case op < 75:
				ge, gd := c.Insert(addr, write)
				we, wd := r.insertLine(addr, write, false)
				got, want = [2]any{ge, gd}, [2]any{we, wd}
			case op < 82:
				c.InsertSpeculative(addr)
				r.insertLine(addr, true, true)
			case op < 86:
				got, want = c.MarkSpeculative(addr), r.MarkSpeculative(addr)
			case op < 90:
				got, want = c.Probe(addr), r.Probe(addr)
			case op < 95:
				got, want = c.Invalidate(addr), r.Invalidate(addr)
			case op < 97:
				got, want = c.FlushSpeculative(), r.speculative(true)
			case op < 99:
				got, want = c.CommitSpeculative(), r.speculative(false)
			default:
				if rng.Intn(10) == 0 {
					victimHits += c.VictimHits
					c.Reset()
					r.Reset()
				} else {
					c, r = c.Clone(), r.clone()
				}
			}
			if got != want {
				t.Fatalf("config %d, op %d at %#x: got %v, reference %v", ci, i, addr, got, want)
			}
			if c.Hits != r.Hits || c.Misses != r.Misses || c.VictimHits != r.VictimHits {
				t.Fatalf("config %d, op %d: stats %d/%d/%d, reference %d/%d/%d", ci, i,
					c.Hits, c.Misses, c.VictimHits, r.Hits, r.Misses, r.VictimHits)
			}
		}
		if victimHits+c.VictimHits == 0 && cfg.VictimEntries > 0 {
			t.Errorf("config %d: sequence never hit the victim buffer", ci)
		}
	}
}
