package mem

import "maps"

// Clone returns a deep copy of the hierarchy: caches, bus and MSHR
// clocks, in-flight fill map, stream buffers, miss-filter set, and
// statistics. MissObserver is NOT copied — it closes over the owning
// simulation's trackers, so every simulation must install its own on the
// clone. Cloning must be exact (a run started from a clone is
// byte-identical to one started from the original); the warm-state
// equivalence tests pin that property.
func (h *Hierarchy) Clone() *Hierarchy {
	cl := *h
	cl.ICache = h.ICache.Clone()
	cl.DCache = h.DCache.Clone()
	cl.L2 = h.L2.Clone()
	cl.pending = maps.Clone(h.pending)
	cl.missedLines = maps.Clone(h.missedLines)
	cl.mshrs = make([]int64, len(h.mshrs), cap(h.mshrs))
	copy(cl.mshrs, h.mshrs)
	if h.streams != nil {
		cl.streams = make([]streamBuf, len(h.streams))
		blocks := make([]streamBlock, len(h.streams)*h.cfg.StreamBufBlocks)
		for i := range h.streams {
			cl.streams[i] = h.streams[i]
			dst := blocks[i*h.cfg.StreamBufBlocks : (i+1)*h.cfg.StreamBufBlocks : (i+1)*h.cfg.StreamBufBlocks]
			copy(dst, h.streams[i].blocks)
			cl.streams[i].blocks = dst
		}
	}
	cl.MissObserver = nil
	return &cl
}

// CloneAs returns a Clone whose configuration is cfg, which must share
// h's Geometry (it panics otherwise): the tag state is h's, the timing
// is cfg's. Warm-state checkpoints are taken once per geometry and
// handed to machines whose latencies differ this way, which is exact
// because functional warming never reads a timing field.
func (h *Hierarchy) CloneAs(cfg Config) *Hierarchy {
	if cfg.Geometry() != h.cfg.Geometry() {
		panic("mem: CloneAs with a different cache geometry")
	}
	cl := h.Clone()
	cl.cfg = cfg
	return cl
}
