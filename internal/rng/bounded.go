package rng

import (
	"math"
	"math/bits"
)

// Bounded draws uniform values in [0, n) for one fixed n, by rejection
// over the largest multiple of n below 2⁶⁴ and then the remainder v mod
// n. Both the rejection limit 2⁶⁴ mod n and the reciprocal ⌊(2⁶⁴−1)/n⌋
// come out of the one division NewBounded makes; a draw then takes the
// remainder with a multiply-high, a multiply-subtract and one correction
// step (Granlund–Montgomery, "Division by invariant integers using
// multiplication", PLDI 1994). It consumes the same variates, rejects
// the same ones and returns the same value as `v % n` would, so the
// draws are bit-identical to a loop that divides. The zero value has
// n = 0 and must not draw. A Bounded is read-only once built, so any
// number of goroutines may draw through one, each with its own Stream.
type Bounded struct {
	n     uint64
	limit uint64 // 2⁶⁴ mod n: variates below it are rejected
	recip uint64 // ⌊(2⁶⁴−1)/n⌋
}

// NewBounded returns the draw over [0, n). It panics if n == 0.
func NewBounded(n uint64) Bounded {
	if n == 0 {
		panic("rng: Bounded with n == 0")
	}
	recip := math.MaxUint64 / n
	// 2⁶⁴−1 = recip·n + e with e < n, so 2⁶⁴ mod n is e+1, or 0 when e+1
	// reaches n.
	limit := math.MaxUint64 - recip*n + 1
	if limit == n {
		limit = 0
	}
	return Bounded{n: n, limit: limit, recip: recip}
}

// Draw returns a uniform value in [0, n) from s.
func (b Bounded) Draw(s *Stream) uint64 {
	for {
		if v := s.Uint64(); v >= b.limit {
			return b.mod(v)
		}
	}
}

// mod returns v mod n. With recip = (2⁶⁴−1−e)/n, v·recip/2⁶⁴ falls short
// of v/n by v(e+1)/(n·2⁶⁴) < 1, so the estimate q = ⌊v·recip/2⁶⁴⌋ is
// ⌊v/n⌋ or one less, v − q·n lies in [0, 2n), and one subtraction
// finishes it.
func (b Bounded) mod(v uint64) uint64 {
	q, _ := bits.Mul64(v, b.recip)
	r := v - q*b.n
	if r >= b.n {
		r -= b.n
	}
	return r
}
