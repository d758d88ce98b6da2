package bpred

// Clone returns a deep copy of the predictor: all direction tables and
// their folded histories, the BTB, the RAS, the global history, and
// statistics. The configured HistLens slice is shared (it is never
// written after New). Cloning must be exact — predictions from a clone
// are byte-identical to predictions from the original — so warmed
// predictor state can be checkpointed once and reused across simulations
// (pipeline.WarmState).
func (p *Predictor) Clone() *Predictor {
	cl := *p
	cl.bimodal = append([]int8(nil), p.bimodal...)
	cl.tagged = append([]taggedTable(nil), p.tagged...)
	if len(p.tagged) > 0 {
		n := len(p.tagged[0].entries)
		entries := make([]taggedEntry, len(p.tagged)*n)
		for i := range cl.tagged {
			dst := entries[i*n : (i+1)*n : (i+1)*n]
			copy(dst, p.tagged[i].entries)
			cl.tagged[i].entries = dst
		}
	}
	cl.btbTags = append([]uint32(nil), p.btbTags...)
	cl.btbTargets = append([]uint64(nil), p.btbTargets...)
	cl.ras = append([]uint64(nil), p.ras...)
	return &cl
}
