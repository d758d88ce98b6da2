// Package cache implements a set-associative cache tag array with LRU
// replacement, an optional victim buffer, and per-line speculative tagging.
//
// The simulator is trace-driven, so caches track tags only (no data — the
// functional values live in the resolved trace and the memory image).
// Speculative tagging exists for SLTP's SRL-based memory system, which
// writes advance stores speculatively into the data cache and must flush
// them when a rally begins (paper §4).
package cache

import "fmt"

// Config sizes a cache.
type Config struct {
	SizeBytes     int // total capacity
	Assoc         int // ways per set
	LineBytes     int // line size (power of two)
	VictimEntries int // victim buffer entries; 0 disables it
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.LineBytes < 8 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a power of two of at least 8", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d is not a multiple of line*assoc", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// A way's tag word packs the line address with three state flags in its
// (always zero) line-offset bits: tag|valid|dirty|spec.
const (
	specBit  uint64 = 1 << iota // written speculatively (SLTP SRL mode)
	dirtyBit                    // holds data newer than the next level
	validBit                    // holds a line
	flagBits = specBit | dirtyBit | validBit
)

// Cache is a set-associative tag array. Create with New.
//
// Way w of set s lives at index s*assoc+w of two flat parallel arrays:
// the packed tag words and the LRU stamps. A lookup scans assoc
// contiguous words.
type Cache struct {
	cfg       Config
	tags      []uint64 // packed tag words
	used      []uint64 // LRU stamps: clock at the way's last touch
	setMask   uint64
	lineShift uint
	clock     uint64

	// Victim buffer: a fixed FIFO ring of victimCap entries (allocated
	// once in New). vHead indexes the oldest entry; vLen counts live ones.
	// Probes walk oldest to youngest, matching insertion order.
	victim    []victimLine
	vHead     int
	vLen      int
	victimCap int

	// Stats
	Hits, Misses, VictimHits uint64
}

type victimLine struct {
	lineAddr uint64
	dirty    bool
}

// victimAt returns the i-th oldest victim entry.
func (c *Cache) victimAt(i int) *victimLine {
	idx := c.vHead + i
	if idx >= c.victimCap {
		idx -= c.victimCap
	}
	return &c.victim[idx]
}

// victimRemove deletes the i-th oldest entry, preserving FIFO order of
// the rest (younger entries shift one slot older).
func (c *Cache) victimRemove(i int) {
	for ; i < c.vLen-1; i++ {
		*c.victimAt(i) = *c.victimAt(i + 1)
	}
	c.vLen--
}

// victimPush appends an entry, evicting and returning the oldest when the
// ring is full.
func (c *Cache) victimPush(v victimLine) (old victimLine, evicted bool) {
	if c.vLen == c.victimCap {
		old = *c.victimAt(0)
		evicted = true
		c.vHead = (c.vHead + 1) % c.victimCap
		c.vLen--
	}
	*c.victimAt(c.vLen) = v
	c.vLen++
	return old, evicted
}

// New builds a cache from cfg. It panics on invalid geometry, which is a
// programming error in machine configuration, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := cfg.SizeBytes / cfg.LineBytes
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		tags:      make([]uint64, ways),
		used:      make([]uint64, ways),
		setMask:   uint64(ways/cfg.Assoc - 1),
		lineShift: shift,
		victim:    make([]victimLine, cfg.VictimEntries),
		victimCap: cfg.VictimEntries,
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

// LineBytes returns the configured line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// setBase returns the index of way 0 of addr's set.
func (c *Cache) setBase(addr uint64) int { return int((addr>>c.lineShift)&c.setMask) * c.cfg.Assoc }

// find returns the index of the valid way holding addr's line, or -1.
func (c *Cache) find(addr uint64) int {
	want := c.LineAddr(addr) | validBit
	base := c.setBase(addr)
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.tags[i]&^(specBit|dirtyBit) == want {
			return i
		}
	}
	return -1
}

// Lookup performs an access. On a hit it updates LRU state and returns
// true. On a miss it checks the victim buffer; a victim hit re-inserts the
// line (counted in VictimHits and reported as a hit). write marks the line
// dirty on a hit.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.clock++
	if i := c.find(addr); i >= 0 {
		c.used[i] = c.clock
		if write {
			c.tags[i] |= dirtyBit
		}
		c.Hits++
		return true
	}
	// Victim buffer probe.
	la := c.LineAddr(addr)
	for i := 0; i < c.vLen; i++ {
		if v := c.victimAt(i); v.lineAddr == la {
			dirty := v.dirty
			c.victimRemove(i)
			c.insertLine(addr, dirty || write, false)
			c.VictimHits++
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Probe reports whether addr is present without updating LRU or stats.
// The victim buffer is included.
func (c *Cache) Probe(addr uint64) bool {
	if c.find(addr) >= 0 {
		return true
	}
	la := c.LineAddr(addr)
	for i := 0; i < c.vLen; i++ {
		if c.victimAt(i).lineAddr == la {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr (e.g. on miss return). It returns
// the evicted line address and whether a valid dirty line was displaced to
// memory (after passing through the victim buffer if one is configured).
func (c *Cache) Insert(addr uint64, write bool) (evicted uint64, dirtyEvict bool) {
	return c.insertLine(addr, write, false)
}

// InsertSpeculative fills the line and tags it speculative (SLTP advance
// stores). FlushSpeculative removes all such lines.
func (c *Cache) InsertSpeculative(addr uint64) {
	c.insertLine(addr, true, true)
}

// MarkSpeculative tags an already-present line as speculatively written.
// It reports whether the line was present.
func (c *Cache) MarkSpeculative(addr uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.tags[i] |= specBit | dirtyBit
		return true
	}
	return false
}

func (c *Cache) insertLine(addr uint64, dirty, spec bool) (evicted uint64, dirtyEvict bool) {
	var flags uint64
	if dirty {
		flags |= dirtyBit
	}
	if spec {
		flags |= specBit
	}
	c.clock++
	// Refill into an existing copy (MSHR merge already filled it).
	if i := c.find(addr); i >= 0 {
		c.used[i] = c.clock
		c.tags[i] |= flags
		return 0, false
	}
	// Fill the first invalid way, else evict the least recently used one
	// (optionally into the victim buffer).
	base := c.setBase(addr)
	vi := -1
	lru := base
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.tags[i]&validBit == 0 {
			vi = i
			break
		}
		if c.used[i] < c.used[lru] {
			lru = i
		}
	}
	if vi < 0 {
		vi = lru
		evLine := c.tags[vi] &^ flagBits
		evDirty := c.tags[vi]&dirtyBit != 0
		if c.victimCap > 0 {
			if old, ev := c.victimPush(victimLine{evLine, evDirty}); ev {
				evicted, dirtyEvict = old.lineAddr, old.dirty
			}
		} else {
			evicted, dirtyEvict = evLine, evDirty
		}
	}
	c.tags[vi] = c.LineAddr(addr) | validBit | flags
	c.used[vi] = c.clock
	return evicted, dirtyEvict
}

// Invalidate removes the line containing addr if present (victim buffer
// included). It reports whether a line was removed.
func (c *Cache) Invalidate(addr uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.tags[i] = 0
		return true
	}
	la := c.LineAddr(addr)
	for i := 0; i < c.vLen; i++ {
		if c.victimAt(i).lineAddr == la {
			c.victimRemove(i)
			return true
		}
	}
	return false
}

// FlushSpeculative invalidates every speculatively tagged line and returns
// how many were flushed. SLTP calls this at the start of each rally.
func (c *Cache) FlushSpeculative() int {
	n := 0
	for i, w := range c.tags {
		if w&(validBit|specBit) == validBit|specBit {
			c.tags[i] = 0
			n++
		}
	}
	return n
}

// CommitSpeculative clears the speculative tag on every line, making the
// writes permanent (SLTP does this when a rally completes successfully).
func (c *Cache) CommitSpeculative() int {
	n := 0
	for i, w := range c.tags {
		if w&(validBit|specBit) == validBit|specBit {
			c.tags[i] = w &^ specBit
			n++
		}
	}
	return n
}

// Reset invalidates the whole cache and clears statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.used)
	c.vHead, c.vLen = 0, 0
	c.clock = 0
	c.Hits, c.Misses, c.VictimHits = 0, 0, 0
}
