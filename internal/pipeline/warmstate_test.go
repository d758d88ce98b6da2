package pipeline

import (
	"testing"

	"icfp/internal/bpred"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

// TestWarmStateIncrementalEqualsDirect pins the checkpoint store's core
// soundness claim: warmed state handed out by the series — built by
// cloning a shorter master and extending it — is indistinguishable from
// state warmed directly over the full prefix in one pass. The witness is
// behavioural: replaying the identical instruction suffix into both
// states must produce identical cache and predictor counters (warming is
// deterministic, so any divergence in cache contents, LRU order, victim
// buffers, or predictor tables would surface as a counter difference).
func TestWarmStateIncrementalEqualsDirect(t *testing.T) {
	const n, mid, upto = 20_000, 5_000, 15_000
	w := workload.SPEC("mcf", n)
	cfg := DefaultConfig()

	// Direct: one pass over [0, upto).
	dh := mem.New(cfg.Hier)
	if w.Prewarm != nil {
		w.Prewarm(dh)
	}
	dp := bpred.New(cfg.Bpred)
	WarmRange(dh, dp, w.Trace, 0, upto)

	// Series: a master at mid first, then upto — forcing the incremental
	// clone-and-extend path.
	if h, p := WarmState(w, cfg.Hier, cfg.Bpred, mid); h == nil || p == nil {
		t.Fatal("nil warm state")
	}
	sh, sp := WarmState(w, cfg.Hier, cfg.Bpred, upto)

	// Replay the identical suffix into both and compare every counter.
	WarmRange(dh, dp, w.Trace, upto, n)
	WarmRange(sh, sp, w.Trace, upto, n)

	type counters struct {
		ih, im, dhits, dm, vh, l2h, l2m uint64
		lookups, mispredicts            uint64
	}
	snap := func(h *mem.Hierarchy, p *bpred.Predictor) counters {
		return counters{
			ih: h.ICache.Hits, im: h.ICache.Misses,
			dhits: h.DCache.Hits, dm: h.DCache.Misses, vh: h.DCache.VictimHits,
			l2h: h.L2.Hits, l2m: h.L2.Misses,
			lookups: p.Lookups, mispredicts: p.Mispredicts,
		}
	}
	if d, s := snap(dh, dp), snap(sh, sp); d != s {
		t.Fatalf("incremental warm state diverged from direct warming:\ndirect %+v\nseries %+v", d, s)
	}
}

// TestWarmStateMastersAreImmutable pins that handed-out state is a
// private clone: mutating it must not corrupt the master other callers
// receive.
func TestWarmStateMastersAreImmutable(t *testing.T) {
	const n, upto = 10_000, 8_000
	w := workload.SPEC("gzip", n)
	cfg := DefaultConfig()

	h1, p1 := WarmState(w, cfg.Hier, cfg.Bpred, upto)
	// Trash the first clone.
	for a := uint64(1 << 30); a < 1<<30+1<<20; a += 64 {
		h1.DCache.Lookup(a, true)
		h1.DCache.Insert(a, true)
		p1.Update(a, a%3 == 0)
	}
	h2, p2 := WarmState(w, cfg.Hier, cfg.Bpred, upto)
	if h2.DCache.Hits == h1.DCache.Hits && h2.DCache.Misses == h1.DCache.Misses {
		t.Fatal("second clone shows the first clone's mutations")
	}
	// A clean clone replayed forward must match direct warming, proving
	// the master did not absorb the first clone's writes.
	dh := mem.New(cfg.Hier)
	if w.Prewarm != nil {
		w.Prewarm(dh)
	}
	dp := bpred.New(cfg.Bpred)
	WarmRange(dh, dp, w.Trace, 0, upto)
	WarmRange(dh, dp, w.Trace, upto, n)
	WarmRange(h2, p2, w.Trace, upto, n)
	if dh.DCache.Hits != h2.DCache.Hits || dh.DCache.Misses != h2.DCache.Misses ||
		dp.Lookups != p2.Lookups || dp.Mispredicts != p2.Mispredicts {
		t.Fatal("master corrupted by a previous clone's mutations")
	}
}

// TestWarmStateKeyExcludesTiming pins the series identity: machines that
// differ only in timing share one series (one master per prefix), and
// each gets back a hierarchy configured with its own timing.
func TestWarmStateKeyExcludesTiming(t *testing.T) {
	const n, upto = 10_000, 6_000
	w := workload.SPEC("gzip", n)
	slow, fast := DefaultConfig().Hier, DefaultConfig().Hier
	slow.L2HitLat, slow.MemLat, slow.NumMSHRs = 20, 400, 64
	fast.L2HitLat, fast.MemLat, fast.NumMSHRs = 10, 200, 8
	bcfg := DefaultConfig().Bpred

	hs, _ := WarmState(w, slow, bcfg, upto)
	hf, _ := WarmState(w, fast, bcfg, upto)
	if hs.Config() != slow || hf.Config() != fast {
		t.Fatalf("clones carry timing %+v and %+v, want the callers' own", hs.Config(), hf.Config())
	}
	s := w.SharedState(warmKey(fast.Geometry(), bcfg), func() any {
		t.Fatal("no series under the geometry key")
		return nil
	}).(*warmSeries)
	if len(s.masters) != 1 {
		t.Fatalf("%d masters for one prefix at two timings, want 1", len(s.masters))
	}
}
