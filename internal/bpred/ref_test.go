package bpred

import (
	"math/rand"
	"testing"
)

// foldHistory compresses histLen bits of global history into bits wide by
// XOR-ing consecutive bits-wide chunks. It is the direct definition the
// predictor's incremental folds must reproduce after every outcome.
func foldHistory(hist uint64, histLen, bits int) uint64 {
	if histLen > 64 {
		histLen = 64
	}
	var masked uint64
	if histLen == 64 {
		masked = hist
	} else {
		masked = hist & ((1 << uint(histLen)) - 1)
	}
	var folded uint64
	for masked != 0 {
		folded ^= masked & ((1 << uint(bits)) - 1)
		masked >>= uint(bits)
	}
	return folded
}

// refPredictor is the direction predictor computed the direct way: every
// lookup folds the raw global history afresh. The production predictor
// must agree with it prediction for prediction.
type refPredictor struct {
	cfg     Config
	bimodal []int8
	tagged  [][]taggedEntry
	hist    uint64

	Lookups, Mispredicts uint64
}

func newRef(cfg Config) *refPredictor {
	r := &refPredictor{cfg: cfg, bimodal: make([]int8, 1<<cfg.BimodalBits)}
	for i := range r.bimodal {
		r.bimodal[i] = 2
	}
	r.tagged = make([][]taggedEntry, len(cfg.HistLens))
	for i := range r.tagged {
		r.tagged[i] = make([]taggedEntry, 1<<cfg.TaggedBits)
	}
	return r
}

func (r *refPredictor) clone() *refPredictor {
	cl := *r
	cl.bimodal = append([]int8(nil), r.bimodal...)
	cl.tagged = make([][]taggedEntry, len(r.tagged))
	for i := range r.tagged {
		cl.tagged[i] = append([]taggedEntry(nil), r.tagged[i]...)
	}
	return &cl
}

func (r *refPredictor) taggedIndex(table int, pc uint64) (uint64, uint16) {
	bits := r.cfg.TaggedBits
	h := foldHistory(r.hist, r.cfg.HistLens[table], bits)
	idx := ((pc >> 2) ^ h ^ (pc >> uint(bits+2))) & ((1 << uint(bits)) - 1)
	t := foldHistory(r.hist, r.cfg.HistLens[table], 9)
	return idx, uint16(((pc >> 2) ^ (t << 1)) & 0x1FF)
}

func (r *refPredictor) predict(pc uint64) bool {
	for t := len(r.tagged) - 1; t >= 0; t-- {
		idx, tag := r.taggedIndex(t, pc)
		if e := &r.tagged[t][idx]; e.valid && e.tag == tag {
			return e.ctr >= 0
		}
	}
	return r.bimodal[(pc>>2)&((1<<uint(r.cfg.BimodalBits))-1)] >= 2
}

func (r *refPredictor) Predict(pc uint64) bool {
	r.Lookups++
	return r.predict(pc)
}

func (r *refPredictor) Update(pc uint64, taken bool) {
	correct := r.predict(pc) == taken
	provider := -1
	for t := len(r.tagged) - 1; t >= 0; t-- {
		idx, tag := r.taggedIndex(t, pc)
		e := &r.tagged[t][idx]
		if e.valid && e.tag == tag {
			provider = t
			if taken && e.ctr < 1 {
				e.ctr++
			} else if !taken && e.ctr > -2 {
				e.ctr--
			}
			break
		}
	}
	if provider < 0 {
		bi := (pc >> 2) & ((1 << uint(r.cfg.BimodalBits)) - 1)
		if taken && r.bimodal[bi] < 3 {
			r.bimodal[bi]++
		} else if !taken && r.bimodal[bi] > 0 {
			r.bimodal[bi]--
		}
	}
	if !correct {
		r.Mispredicts++
		for t := provider + 1; t < len(r.tagged); t++ {
			idx, tag := r.taggedIndex(t, pc)
			e := &r.tagged[t][idx]
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
	r.hist = r.hist<<1 | boolBit(taken)
}

// TestFoldedHistMatchesFoldHistory pins the incremental folds to the
// direct definition for every history length 1–64, at the index widths
// of small and large tables and at the tag width, after every outcome
// of a random stream.
func TestFoldedHistMatchesFoldHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{1, 3, 7, tagBits, 11, 13, 16} {
		for hl := 1; hl <= 64; hl++ {
			f := newFoldedHist(hl, width)
			var hist uint64
			for i := 0; i < 300; i++ {
				b := uint64(rng.Intn(2))
				f.shift(b, hist>>uint(min(hl, 64)-1)&1)
				hist = hist<<1 | b
				if want := foldHistory(hist, hl, width); f.val != want {
					t.Fatalf("width %d, length %d, outcome %d: fold %#x, want %#x", width, hl, i, f.val, want)
				}
			}
		}
	}
}

// TestPredictorMatchesDirectFold drives the predictor and the direct-fold
// reference with the same branch stream (a mix of biased, patterned and
// random branches) and requires identical predictions and counters. The
// call pattern varies: Predict then Update of the same branch (the
// common case), Update with no Predict, and Update after a Predict of a
// different branch. A clone taken mid-stream, between a Predict and its
// Update, must continue exactly as its original does.
func TestPredictorMatchesDirectFold(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{BimodalBits: 6, TaggedBits: 5, HistLens: []int{3, 9, 27, 64}, BTBBits: 4, RASEntries: 4},
		{BimodalBits: 4, TaggedBits: 7, HistLens: []int{1, 80}, BTBBits: 4, RASEntries: 4},
	}
	for ci, cfg := range cfgs {
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		p, r := New(cfg), newRef(cfg)
		var pc2 *Predictor
		var rc2 *refPredictor
		predict := func(p *Predictor, r *refPredictor, pc uint64, i int) {
			t.Helper()
			if got, want := p.Predict(pc), r.Predict(pc); got != want {
				t.Fatalf("config %d, branch %d: predicted %v, reference %v", ci, i, got, want)
			}
		}
		for i := 0; i < 60_000; i++ {
			pc := uint64(0x40_0000 + 4*rng.Intn(512))
			var taken bool
			switch pc % 16 {
			case 0, 4:
				taken = i%7 != 0 // loop-like
			case 8:
				taken = rng.Intn(2) == 0 // random
			default:
				taken = (pc>>4)%3 != 0 // biased per branch
			}
			switch i % 5 {
			case 0: // no Predict
			case 1:
				predict(p, r, pc+4, i)
			default:
				predict(p, r, pc, i)
			}
			const cloneAt = 20_002 // a Predict(pc) is outstanding
			if i == cloneAt {
				pc2, rc2 = p.Clone(), r.clone()
				pc2.Update(pc, taken)
				rc2.Update(pc, taken)
			} else if pc2 != nil {
				predict(pc2, rc2, pc^0x40, i)
				pc2.Update(pc^0x40, !taken)
				rc2.Update(pc^0x40, !taken)
			}
			p.Update(pc, taken)
			r.Update(pc, taken)
		}
		if p.Lookups != r.Lookups || p.Mispredicts != r.Mispredicts {
			t.Fatalf("config %d: counters %d/%d, reference %d/%d", ci, p.Lookups, p.Mispredicts, r.Lookups, r.Mispredicts)
		}
		if pc2.Mispredicts != rc2.Mispredicts || pc2.Mispredicts == p.Mispredicts {
			t.Fatalf("config %d: clone mispredicts %d, reference %d (original %d)", ci, pc2.Mispredicts, rc2.Mispredicts, p.Mispredicts)
		}
	}
}
