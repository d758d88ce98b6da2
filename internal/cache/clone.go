package cache

// Clone returns a deep copy of the cache: tag words, LRU stamps, victim
// buffer, LRU clock, and statistics. The copy shares nothing mutable with
// the original, so warmed cache state can be checkpointed once and handed
// to any number of simulations (pipeline.WarmState). Cloning must be
// exact — a simulation started from a clone behaves byte-identically to
// one started from the original — which the warm-state equivalence tests
// pin.
func (c *Cache) Clone() *Cache {
	cl := *c
	cl.tags = append([]uint64(nil), c.tags...)
	cl.used = append([]uint64(nil), c.used...)
	cl.victim = append([]victimLine(nil), c.victim...)
	return &cl
}
