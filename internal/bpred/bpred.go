// Package bpred implements the front-end prediction structures from
// Table 1: a PPM-like tagged multi-table direction predictor (after
// Michaud, JILP 2005) within a 24 KB budget, a 2K-entry branch target
// buffer, and a 32-entry return address stack.
//
// The PPM predictor consults a bimodal base table and three tagged tables
// indexed by progressively longer global-history hashes; the longest
// matching table provides the prediction, and allocation on a mispredict
// moves the branch into a longer-history table.
package bpred

// Config sizes the predictor.
type Config struct {
	BimodalBits int   // log2 entries of the base bimodal table
	TaggedBits  int   // log2 entries of each tagged table
	HistLens    []int // global history length per tagged table
	BTBBits     int   // log2 entries of the branch target buffer
	RASEntries  int   // return address stack depth
}

// DefaultConfig matches the paper's 24 KB 3-table PPM predictor, 2K-entry
// BTB and 32-entry RAS.
func DefaultConfig() Config {
	return Config{
		BimodalBits: 13, // 8K 2-bit counters = 2 KB
		TaggedBits:  11, // 3 x 2K entries x ~12 bits ≈ 9 KB
		HistLens:    []int{5, 15, 40},
		BTBBits:     11, // 2K entries
		RASEntries:  32,
	}
}

type taggedEntry struct {
	tag   uint16
	ctr   int8 // -2..1, taken if >= 0
	valid bool
}

// tagBits is the width of a tagged-table tag.
const tagBits = 9

// foldedHist is a global history of histLen bits folded (XOR of
// consecutive width-bit chunks) into width bits, kept current one
// outcome at a time: shifting the history rotates the fold left by one,
// brings the new outcome in at bit 0, and cancels the outcome that just
// left the window at bit histLen mod width (TAGE's circular folds).
type foldedHist struct {
	val    uint64
	width  uint   // fold width, 1..63
	mask   uint64 // 1<<width - 1; 0 for an empty history, whose fold stays 0
	outPos uint   // histLen mod width: where the leaving outcome sits in val
}

func newFoldedHist(histLen, width int) foldedHist {
	if histLen <= 0 {
		return foldedHist{}
	}
	return foldedHist{
		width:  uint(width),
		mask:   1<<uint(width) - 1,
		outPos: uint(min(histLen, 64) % width),
	}
}

// shift takes outcome b into the fold; out is the outcome leaving the
// history window.
func (f *foldedHist) shift(b, out uint64) {
	v := f.val<<1 | b
	v ^= out << (f.outPos & 63)
	v ^= v >> (f.width & 63)
	f.val = v & f.mask
}

// taggedTable is one tagged table with its folded index and tag
// histories.
type taggedTable struct {
	entries []taggedEntry
	outBit  uint       // histLen-1: the global-history bit leaving the window
	idxHist foldedHist // histLen bits folded into TaggedBits
	tagHist foldedHist // histLen bits folded into tagBits
}

// providerMemo is the provider walk of the latest Predict. Tables and
// history change only in Update, so until the next Update it is exactly
// the walk Update would repeat for the same pc.
type providerMemo struct {
	pc    uint64
	table int    // provider table, -1 for the bimodal table
	idx   uint64 // entry index in the provider table
	ok    bool
}

// Predictor is the combined direction predictor, BTB, and RAS.
type Predictor struct {
	cfg     Config
	bimodal []int8 // 2-bit saturating counters, taken if >= 2 (range 0..3)
	tagged  []taggedTable
	hist    uint64 // global history, youngest outcome in bit 0
	memo    providerMemo

	btbTags    []uint32
	btbTargets []uint64

	ras    []uint64
	rasTop int

	// Stats
	Lookups, Mispredicts   uint64
	BTBLookups, BTBMisses  uint64
	RASPushes, RASOverflow uint64
}

// New builds a predictor from cfg.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:        cfg,
		bimodal:    make([]int8, 1<<cfg.BimodalBits),
		btbTags:    make([]uint32, 1<<cfg.BTBBits),
		btbTargets: make([]uint64, 1<<cfg.BTBBits),
		ras:        make([]uint64, cfg.RASEntries),
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2 // weakly taken
	}
	p.tagged = make([]taggedTable, len(cfg.HistLens))
	entries := make([]taggedEntry, len(cfg.HistLens)<<cfg.TaggedBits)
	for i, hl := range cfg.HistLens {
		n := 1 << cfg.TaggedBits
		p.tagged[i] = taggedTable{
			entries: entries[i*n : (i+1)*n : (i+1)*n],
			outBit:  uint(max(min(hl, 64)-1, 0)),
			idxHist: newFoldedHist(hl, cfg.TaggedBits),
			tagHist: newFoldedHist(hl, tagBits),
		}
	}
	return p
}

// taggedIndex returns the entry index and tag for pc in table t.
func (p *Predictor) taggedIndex(t *taggedTable, pc uint64) (idx uint64, tag uint16) {
	bits := uint(p.cfg.TaggedBits)
	idx = ((pc >> 2) ^ t.idxHist.val ^ (pc >> (bits + 2))) & (1<<bits - 1)
	tag = uint16(((pc >> 2) ^ (t.tagHist.val << 1)) & (1<<tagBits - 1))
	return idx, tag
}

func (p *Predictor) bimodalIndex(pc uint64) uint64 {
	return (pc >> 2) & ((1 << uint(p.cfg.BimodalBits)) - 1)
}

// provider returns the longest-history table whose entry for pc matches
// its tag and that entry's index, or table -1 (the bimodal table
// provides).
func (p *Predictor) provider(pc uint64) (table int, idx uint64) {
	for t := len(p.tagged) - 1; t >= 0; t-- {
		tt := &p.tagged[t]
		idx, tag := p.taggedIndex(tt, pc)
		if e := &tt.entries[idx]; e.valid && e.tag == tag {
			return t, idx
		}
	}
	return -1, 0
}

// Predict returns the predicted direction for a conditional branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	p.Lookups++
	t, idx := p.provider(pc)
	p.memo = providerMemo{pc: pc, table: t, idx: idx, ok: true}
	if t >= 0 {
		return p.tagged[t].entries[idx].ctr >= 0
	}
	return p.bimodal[p.bimodalIndex(pc)] >= 2
}

// Update trains the predictor with the resolved direction and shifts the
// global history. Call it exactly once per dynamic conditional branch, in
// program order.
func (p *Predictor) Update(pc uint64, taken bool) {
	// One walk finds the provider (longest matching table, else bimodal),
	// which is also the prediction Predict made against this state. When
	// Predict(pc) was the last call, its walk is still current.
	provider, idx := p.memo.table, p.memo.idx
	if !p.memo.ok || p.memo.pc != pc {
		provider, idx = p.provider(pc)
	}
	p.memo.ok = false
	var correct bool
	if provider >= 0 {
		e := &p.tagged[provider].entries[idx]
		correct = (e.ctr >= 0) == taken
		if taken && e.ctr < 1 {
			e.ctr++
		} else if !taken && e.ctr > -2 {
			e.ctr--
		}
	} else {
		bi := p.bimodalIndex(pc)
		correct = (p.bimodal[bi] >= 2) == taken
		if taken && p.bimodal[bi] < 3 {
			p.bimodal[bi]++
		} else if !taken && p.bimodal[bi] > 0 {
			p.bimodal[bi]--
		}
	}

	// On a mispredict, allocate in one longer-history table.
	if !correct {
		p.Mispredicts++
		for t := provider + 1; t < len(p.tagged); t++ {
			idx, tag := p.taggedIndex(&p.tagged[t], pc)
			e := &p.tagged[t].entries[idx]
			if !e.valid || e.ctr == 0 || e.ctr == -1 {
				var ctr int8 = -1
				if taken {
					ctr = 0
				}
				*e = taggedEntry{tag: tag, ctr: ctr, valid: true}
				break
			}
		}
	}

	b := boolBit(taken)
	for t := range p.tagged {
		tt := &p.tagged[t]
		out := p.hist >> (tt.outBit & 63) & 1
		tt.idxHist.shift(b, out)
		tt.tagHist.shift(b, out)
	}
	p.hist = p.hist<<1 | b
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PredictTarget consults the BTB for the target of a taken control
// transfer at pc. ok is false on a BTB miss.
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	p.BTBLookups++
	idx := (pc >> 2) & ((1 << uint(p.cfg.BTBBits)) - 1)
	if p.btbTags[idx] == uint32(pc>>2) && p.btbTargets[idx] != 0 {
		return p.btbTargets[idx], true
	}
	p.BTBMisses++
	return 0, false
}

// UpdateTarget installs the resolved target for pc.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	idx := (pc >> 2) & ((1 << uint(p.cfg.BTBBits)) - 1)
	p.btbTags[idx] = uint32(pc >> 2)
	p.btbTargets[idx] = target
}

// Push records a return address on the RAS (for calls).
func (p *Predictor) Push(ret uint64) {
	p.RASPushes++
	if p.rasTop == len(p.ras) {
		p.RASOverflow++
		copy(p.ras, p.ras[1:])
		p.rasTop--
	}
	p.ras[p.rasTop] = ret
	p.rasTop++
}

// Pop predicts a return target from the RAS. ok is false when empty.
func (p *Predictor) Pop() (ret uint64, ok bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop], true
}

// MispredictRate returns the fraction of mispredicted direction lookups.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}
