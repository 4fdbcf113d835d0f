package rng

import (
	"math"
	"testing"
)

// divDraw is the draw Bounded replaced: reject variates below 2⁶⁴ mod n,
// then divide. (The power-of-two shortcut it once had, v & (n−1), is
// this with a limit of 0.)
func divDraw(s *Stream, n uint64) uint64 {
	limit := -n % n
	for {
		if v := s.Uint64(); v >= limit {
			return v % n
		}
	}
}

// words is how many 32-bit words s has handed out since it was created.
func words(s *Stream) uint64 { return s.ctr*4 - uint64(s.n) }

// boundedDivisors are the bounds where a reciprocal is most likely to be
// off by one: the smallest ones, both sides of every power of two, the
// two sides of 2⁶³ where the reciprocal drops to 1, and the top of the
// range.
func boundedDivisors() []uint64 {
	ns := []uint64{1, 2, 3, 5, 6, 7, 10, 12, 1536, 1<<63 - 1, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	for k := 2; k < 64; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	return ns
}

// checkBounded holds NewBounded(n) to the division it replaces: the same
// rejection limit, the same remainder on the variates where a reciprocal
// slips (both ends of the rejection zone, multiples of n and their
// neighbours, the top of the range, and v itself), and over draws the
// same values from the same number of variates each.
func checkBounded(t *testing.T, n, seed uint64, draws int) {
	t.Helper()
	b := NewBounded(n)
	if want := -n % n; b.limit != want || b.n != n {
		t.Fatalf("n=%d: limit %d, n %d; want limit %d", n, b.limit, b.n, want)
	}
	q := math.MaxUint64 / n
	for _, v := range []uint64{0, 1, seed, b.limit - 1, b.limit, n - 1, n, n + 1, 2*n - 1, 2 * n,
		q * n, q*n - 1, (q - 1) * n, (q-1)*n - 1, math.MaxUint64 - n, math.MaxUint64 - 1, math.MaxUint64} {
		if got, want := b.mod(v), v%n; got != want {
			t.Fatalf("n=%d: %d mod n = %d, want %d", n, v, got, want)
		}
	}
	fast, ref := New(seed, uint32(n), uint32(n>>32)), New(seed, uint32(n), uint32(n>>32))
	for k := 0; k < draws; k++ {
		w0 := words(fast)
		got, want := b.Draw(fast), divDraw(ref, n)
		if got != want || words(fast) != words(ref) {
			t.Fatalf("n=%d seed %d draw %d: %d from %d words, division %d from %d words",
				n, seed, k, got, words(fast)-w0, want, words(ref)-w0)
		}
	}
}

func TestBoundedMatchesDivision(t *testing.T) {
	for _, n := range boundedDivisors() {
		checkBounded(t, n, n^0x9e3779b97f4a7c15, 2000)
	}
	// 2⁶³+1 rejects nearly half its variates: the count check above has
	// to have seen rejections, not only accepted first draws.
	s := New(1, 0, 0)
	b := NewBounded(1<<63 + 1)
	w0 := words(s)
	for k := 0; k < 1000; k++ {
		b.Draw(s)
	}
	if used := (words(s) - w0) / 2; used < 1500 {
		t.Errorf("1000 draws under 2⁶³+1 used %d variates, want ≈ 2000", used)
	}
}

func TestNewBoundedPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBounded(0) did not panic")
		}
	}()
	NewBounded(0)
}

// FuzzBounded searches (n, seed) for a bound where Bounded and the
// division disagree on the limit, a remainder, a drawn value or the
// number of variates a draw takes. The seeds below run on every plain
// `go test`.
func FuzzBounded(f *testing.F) {
	for _, n := range []uint64{1, 3, 1<<32 + 1, 1<<63 - 1, 1<<63 + 1, math.MaxUint64} {
		f.Add(n, n*7)
	}
	f.Fuzz(func(t *testing.T, n, seed uint64) {
		if n == 0 {
			return
		}
		checkBounded(t, n, seed, 64)
	})
}
