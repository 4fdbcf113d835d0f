package rng

import (
	"fmt"
	"math"
	"testing"
)

func TestPhiloxKnownAnswer(t *testing.T) {
	// Reference vectors from the Random123 distribution (kat_vectors.txt),
	// philox4x32-10.
	cases := []struct {
		ctr, want [4]uint32
		key       [2]uint32
	}{
		{
			ctr:  [4]uint32{0, 0, 0, 0},
			key:  [2]uint32{0, 0},
			want: [4]uint32{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8},
		},
		{
			ctr:  [4]uint32{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
			key:  [2]uint32{0xffffffff, 0xffffffff},
			want: [4]uint32{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd},
		},
		{
			ctr:  [4]uint32{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
			key:  [2]uint32{0xa4093822, 0x299f31d0},
			want: [4]uint32{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1},
		},
	}
	for i, c := range cases {
		// The stream's first block is the counter (ctr, base) under key;
		// Uint32 hands its words out last first.
		s := &Stream{key: c.key, base: [2]uint32(c.ctr[2:4]), ctr: uint64(c.ctr[0]) | uint64(c.ctr[1])<<32}
		var got [4]uint32
		for k := 3; k >= 0; k-- {
			got[k] = s.Uint32()
		}
		if got != c.want {
			t.Errorf("case %d: block(%x, %x) = %x, want %x", i, c.ctr, c.key, got, c.want)
		}
	}
}

// TestUint64MatchesTwoUint32 pins Uint64's two-word fast path to its
// definition, two Uint32 reads (high word first), under every
// interleaving of 32- and 64-bit reads up to 12 reads long — so every
// buffer count, odd ones included, meets both kinds of read — and over a
// long random interleaving that crosses the 32-bit counter carry.
func TestUint64MatchesTwoUint32(t *testing.T) {
	check := func(name string, fast, ref *Stream, wide []bool) {
		t.Helper()
		for k, w := range wide {
			if !w {
				if a, b := fast.Uint32(), ref.Uint32(); a != b {
					t.Fatalf("%s read %d: Uint32 %#x, reference %#x", name, k, a, b)
				}
				continue
			}
			hi := uint64(ref.Uint32())
			if a, b := fast.Uint64(), hi<<32|uint64(ref.Uint32()); a != b {
				t.Fatalf("%s read %d: Uint64 %#x, two Uint32 %#x", name, k, a, b)
			}
		}
	}
	const depth = 12
	wide := make([]bool, depth)
	for mask := 0; mask < 1<<depth; mask++ {
		for k := range wide {
			wide[k] = mask>>k&1 == 1
		}
		check(fmt.Sprintf("mask %#x", mask), New(uint64(mask), 3, 1), New(uint64(mask), 3, 1), wide)
	}
	pick := New(17, 0, 0)
	wide = make([]bool, 100_000)
	for k := range wide {
		wide[k] = pick.Uint32()&1 == 1
	}
	fast, ref := New(5, 1, 2), New(5, 1, 2)
	fast.ctr, ref.ctr = 1<<32-3, 1<<32-3
	check("random", fast, ref, wide)
}

func TestStreamDeterminism(t *testing.T) {
	a := New(42, 3, 1)
	b := New(42, 3, 1)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical identity diverged at step %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := New(42, 0, 0)
	b := New(42, 1, 0)
	c := New(43, 0, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		x := a.Uint64()
		if x == b.Uint64() {
			same++
		}
		if x == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct streams produced %d identical words out of 2000", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7, 0, 0)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(7, 0, 0)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUint64nUniform(t *testing.T) {
	s := New(11, 0, 0)
	const n, buckets = 90000, 9
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expect := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d: count %d deviates too far from %v", b, c, expect)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(1, 0, 0)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 100; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1, 0, 0).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 0, 0).Intn(0)
}

func TestShufflepreservesMultiset(t *testing.T) {
	s := New(6, 0, 0)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, x := range xs {
		sum2 += x
	}
	if sum != sum2 {
		t.Errorf("shuffle changed multiset: sum %d -> %d", sum, sum2)
	}
}

func TestDeriveIndependent(t *testing.T) {
	base := New(9, 2, 0)
	d1 := base.Derive(1)
	d2 := base.Derive(2)
	if d1.Uint64() == d2.Uint64() {
		t.Error("derived streams with different sub ids coincide")
	}
	// Deriving must not advance the base.
	b2 := New(9, 2, 0)
	if base.Uint64() != b2.Uint64() {
		t.Error("Derive advanced the parent stream")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(3, 0, 0)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(3, 0, 0)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(8, 0, 0)
	const n = 50000
	p := 0.2
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(s.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // mean of geometric on {0,1,...}
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricPIsOne(t *testing.T) {
	s := New(8, 0, 0)
	for i := 0; i < 10; i++ {
		if g := s.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1, 0, 0)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1, 0, 0)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}
