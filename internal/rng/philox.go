// Package rng provides the pseudorandom machinery used throughout the
// library: a counter-based Philox4x32-10 generator (Salmon et al., SC'11),
// which yields independent, uncorrelated streams for every (seed, rank,
// stream) triple, and the weighted samplers required by graph
// sparsification (prefix-sum binary search and Vose's alias method).
//
// The paper's artifact uses the same generator family so that all
// non-determinism is controlled by a single initial seed; this package
// preserves that property: two runs with the same seed perform identical
// random choices on every virtual processor.
package rng

import (
	"math"
	"math/bits"
)

// Philox4x32-10 round constants (Salmon et al., "Parallel Random Numbers:
// As Easy as 1, 2, 3").
const (
	philoxM0 = 0xD2511F53
	philoxM1 = 0xCD9E8D57
	philoxW0 = 0x9E3779B9 // golden ratio
	philoxW1 = 0xBB67AE85 // sqrt(3)-1
)

// philoxRound is one Philox4x32 round of the counter (c0, c1, c2, c3)
// under the round key (k0, k1).
func philoxRound(c0, c1, c2, c3, k0, k1 uint32) (uint32, uint32, uint32, uint32) {
	hi0, lo0 := bits.Mul32(philoxM0, c0)
	hi1, lo1 := bits.Mul32(philoxM1, c2)
	return hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
}

// Stream is a deterministic random stream. Distinct (seed, rank, sub)
// triples give statistically independent streams; the same triple always
// replays the same sequence. The zero value is a valid stream seeded with
// zeros. Stream is not safe for concurrent use; each goroutine (virtual
// processor) owns its own.
type Stream struct {
	key  [2]uint32
	base [2]uint32 // rank and sub-stream occupy the upper counter words
	ctr  uint64    // lower 64 bits of the counter, incremented per block
	buf  [4]uint32
	n    int // unread words left in buf
}

// New returns a stream for the given global seed, processor rank, and
// sub-stream index. Different triples yield uncorrelated sequences.
func New(seed uint64, rank, sub uint32) *Stream {
	return &Stream{
		key:  [2]uint32{uint32(seed), uint32(seed >> 32)},
		base: [2]uint32{rank, sub},
	}
}

// Derive returns a new independent stream obtained from s's identity with a
// different sub-stream index. It does not advance s.
func (s *Stream) Derive(sub uint32) *Stream {
	return &Stream{key: s.key, base: [2]uint32{s.base[0], s.base[1] ^ 0x5851f42d ^ sub}}
}

// At returns the stream for counter lane (lane, sub) under s's key — the
// same global seed, but with both counter words replaced, so the result
// is independent of the rank s was created for. Work items that may be
// scheduled onto any processor (e.g. minimum-cut trials under dynamic
// scheduling) derive their streams this way from the item index, making
// the randomness a function of (seed, item) alone. It does not advance s.
func (s *Stream) At(lane, sub uint32) *Stream {
	return &Stream{key: s.key, base: [2]uint32{lane, sub}}
}

// refill encrypts the next counter block — (ctr, base) under key, ten
// rounds — into buf. The rounds are written out so that the block and
// the round keys stay in registers for the whole encryption.
func (s *Stream) refill() {
	k0, k1 := s.key[0], s.key[1]
	c0, c1, c2, c3 := philoxRound(uint32(s.ctr), uint32(s.ctr>>32), s.base[0], s.base[1], k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	k0, k1 = k0+philoxW0, k1+philoxW1
	c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
	s.buf = [4]uint32{c0, c1, c2, c3}
	s.ctr++
	s.n = 4
}

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Stream) Uint32() uint32 {
	if s.n == 0 {
		s.refill()
	}
	s.n--
	return s.buf[s.n]
}

// Uint64 returns a uniformly distributed 64-bit value: the next two
// 32-bit words, high word first, exactly as two Uint32 calls would
// return them.
func (s *Stream) Uint64() uint64 {
	if s.n == 0 {
		s.refill()
	}
	if s.n == 1 { // the high word ends this block, the low word starts the next
		hi := uint64(s.Uint32())
		return hi<<32 | uint64(s.Uint32())
	}
	s.n -= 2
	return uint64(s.buf[s.n+1])<<32 | uint64(s.buf[s.n])
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 bits of
// precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Bias is removed by rejection. A caller drawing many values under one n
// keeps a Bounded instead, which pays the setup once.
func (s *Stream) Uint64n(n uint64) uint64 {
	return NewBounded(n).Draw(s)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli reports true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns the number of failures before the first success of a
// Bernoulli(p) process, i.e. a sample of the geometric distribution with
// support {0, 1, 2, ...}. Used for skip-based subgraph sampling. p must be
// in (0, 1].
func (s *Stream) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with p <= 0")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	g := math.Floor(math.Log(u) / math.Log1p(-p))
	if g > float64(math.MaxInt64/2) {
		return math.MaxInt64 / 2
	}
	return int(g)
}
