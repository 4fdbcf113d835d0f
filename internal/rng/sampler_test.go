package rng

import (
	"math"
	"sort"
	"testing"
)

func checkProportional(t *testing.T, name string, weights []uint64, counts []int, draws int) {
	t.Helper()
	var total float64
	for _, w := range weights {
		total += float64(w)
	}
	for i, w := range weights {
		expect := float64(w) / total * float64(draws)
		if w == 0 {
			if counts[i] != 0 {
				t.Errorf("%s: zero-weight index %d drawn %d times", name, i, counts[i])
			}
			continue
		}
		tol := 6 * math.Sqrt(expect+1)
		if math.Abs(float64(counts[i])-expect) > tol {
			t.Errorf("%s: index %d drawn %d times, expected ~%.0f (tol %.0f)", name, i, counts[i], expect, tol)
		}
	}
}

func TestPrefixSamplerProportional(t *testing.T) {
	weights := []uint64{1, 0, 2, 7, 0, 10, 100}
	ps := NewPrefixSampler(weights)
	if ps.Total() != 120 {
		t.Fatalf("Total = %d, want 120", ps.Total())
	}
	s := New(21, 0, 0)
	const draws = 120000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[ps.Sample(s)]++
	}
	checkProportional(t, "prefix", weights, counts, draws)
}

// TestPrefixSamplerMatchesBinarySearch pins the draws: the bucket index
// must return, for every variate, the index the definition (first i with
// cum[i] > x, by binary search) returns — over uniform, skewed, zero-
// laden and near-overflow weights — and consume the stream identically.
func TestPrefixSamplerMatchesBinarySearch(t *testing.T) {
	gen := New(9, 0, 0)
	cases := [][]uint64{
		{1}, {0, 0, 3}, {5, 0, 0, 0}, {1, 1 << 62, 1}, {1 << 40, 1, 1, 1, 1, 1, 1, 1},
	}
	for _, n := range []int{2, 7, 100, 1536} {
		uniform, skewed, sparse := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range uniform {
			uniform[i] = 1
			skewed[i] = 1 + gen.Uint64n(1<<uint(gen.Intn(40)))
			if gen.Intn(4) == 0 {
				sparse[i] = 1 + gen.Uint64n(9)
			}
		}
		sparse[gen.Intn(n)] = 3
		cases = append(cases, uniform, skewed, sparse)
	}
	for ci, weights := range cases {
		ps := NewPrefixSampler(weights)
		a, b := New(uint64(ci), 1, 2), New(uint64(ci), 1, 2)
		for k := 0; k < 2000; k++ {
			x := b.Uint64n(ps.Total())
			want := sort.Search(len(ps.cum), func(i int) bool { return ps.cum[i] > x })
			if got := ps.Sample(a); got != want {
				t.Fatalf("case %d draw %d: x=%d Sample=%d, binary search=%d", ci, k, x, got, want)
			}
		}
		// Both ends of every bucket, where an off-by-one would sit.
		for bkt := range ps.start {
			for _, x := range []uint64{uint64(bkt) << ps.shift, uint64(bkt+1)<<ps.shift - 1} {
				if x >= ps.Total() {
					continue
				}
				want := sort.Search(len(ps.cum), func(i int) bool { return ps.cum[i] > x })
				if got := ps.index(x); got != want {
					t.Fatalf("case %d: x=%d index=%d, binary search=%d", ci, x, got, want)
				}
			}
		}
	}
}

func TestPrefixSamplerSingle(t *testing.T) {
	ps := NewPrefixSampler([]uint64{5})
	s := New(1, 0, 0)
	for i := 0; i < 10; i++ {
		if ps.Sample(s) != 0 {
			t.Fatal("single-element sampler returned nonzero index")
		}
	}
}

func TestPrefixSamplerZeroTotalPanics(t *testing.T) {
	ps := NewPrefixSampler([]uint64{0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("Sample on zero-total sampler did not panic")
		}
	}()
	ps.Sample(New(1, 0, 0))
}

func TestAliasSamplerProportional(t *testing.T) {
	weights := []uint64{3, 1, 0, 6, 20, 2}
	as := NewAliasSampler(weights)
	s := New(33, 0, 0)
	const draws = 160000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[as.Sample(s)]++
	}
	checkProportional(t, "alias", weights, counts, draws)
}

func TestAliasSamplerUniformCase(t *testing.T) {
	weights := []uint64{1, 1, 1, 1}
	as := NewAliasSampler(weights)
	s := New(4, 0, 0)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[as.Sample(s)]++
	}
	checkProportional(t, "alias-uniform", weights, counts, draws)
}

func TestAliasSamplerZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAliasSampler with zero weights did not panic")
		}
	}()
	NewAliasSampler([]uint64{0, 0, 0})
}

// Property: prefix and alias samplers agree in distribution.
func TestSamplersAgree(t *testing.T) {
	weights := []uint64{5, 15, 30, 50}
	ps := NewPrefixSampler(weights)
	as := NewAliasSampler(weights)
	s1 := New(77, 0, 0)
	s2 := New(78, 0, 0)
	const draws = 200000
	c1 := make([]int, len(weights))
	c2 := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		c1[ps.Sample(s1)]++
		c2[as.Sample(s2)]++
	}
	for i := range weights {
		diff := math.Abs(float64(c1[i]-c2[i])) / draws
		if diff > 0.01 {
			t.Errorf("samplers disagree at index %d: prefix %d vs alias %d", i, c1[i], c2[i])
		}
	}
}

func BenchmarkPrefixSample(b *testing.B) {
	weights := make([]uint64, 1<<16)
	s := New(1, 0, 0)
	for i := range weights {
		weights[i] = uint64(s.Intn(100) + 1)
	}
	ps := NewPrefixSampler(weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ps.Sample(s)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	weights := make([]uint64, 1<<16)
	s := New(1, 0, 0)
	for i := range weights {
		weights[i] = uint64(s.Intn(100) + 1)
	}
	as := NewAliasSampler(weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = as.Sample(s)
	}
}
