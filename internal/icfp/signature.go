package icfp

// Signature is the §3.3 multiprocessor-safety filter: a local Bloom-style
// address signature. Loads younger than the outstanding checkpoint that
// obtain their values from the cache (the ones vulnerable to external
// stores) insert their addresses; external stores probe it, and a hit
// forces a squash to the checkpoint. The signature is cleared when a
// checkpoint is taken and when a rally completes. It is never
// communicated between processors.
type Signature struct {
	bits []uint64

	Inserts    uint64
	Probes     uint64
	ProbeHits  uint64
	Clears     uint64
	occupation int
}

// NewSignature builds a signature with the given size in bits (rounded up
// to a multiple of 64; minimum 64).
func NewSignature(bits int) *Signature {
	if bits < 64 {
		bits = 64
	}
	return &Signature{bits: make([]uint64, (bits+63)/64)}
}

func (s *Signature) hashes(addr uint64) (int, int) {
	n := len(s.bits) * 64
	a := addr >> 3
	h1 := int((a ^ a>>13) % uint64(n))
	h2 := int((a*0x9E3779B97F4A7C15 ^ a>>7) % uint64(n))
	return h1, h2
}

func (s *Signature) set(i int)      { s.bits[i/64] |= 1 << (i % 64) }
func (s *Signature) get(i int) bool { return s.bits[i/64]&(1<<(i%64)) != 0 }

// Insert records a vulnerable load address.
func (s *Signature) Insert(addr uint64) {
	s.Inserts++
	h1, h2 := s.hashes(addr)
	s.set(h1)
	s.set(h2)
}

// Probe tests an external store address against the signature. A true
// result requires a squash to the checkpoint (it may be a false
// positive — that is safe, merely slow).
func (s *Signature) Probe(addr uint64) bool {
	s.Probes++
	h1, h2 := s.hashes(addr)
	hit := s.get(h1) && s.get(h2)
	if hit {
		s.ProbeHits++
	}
	return hit
}

// Clear empties the signature (rally completion).
func (s *Signature) Clear() {
	s.Clears++
	for i := range s.bits {
		s.bits[i] = 0
	}
}
