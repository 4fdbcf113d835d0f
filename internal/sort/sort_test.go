package sort

import (
	"math/rand"
	"sort"
	"testing"
)

// genCases builds the adversarial key distributions the radix sort must
// survive: random, duplicate-heavy, already sorted, reversed, all-equal,
// narrow ranges (exercising the digit-skip path), and extreme values.
func genCases(r *rand.Rand) map[string][]KV {
	random := make([]KV, 4097)
	for i := range random {
		random[i] = KV{K: r.Uint64(), V: r.Uint64()}
	}
	dupHeavy := make([]KV, 5000)
	for i := range dupHeavy {
		// ~16 distinct keys: every key is a long run of parallel edges.
		dupHeavy[i] = KV{K: uint64(r.Intn(16)) << 32, V: uint64(r.Intn(3))}
	}
	edges := make([]KV, 3000)
	for i := range edges {
		u := int32(r.Intn(512))
		v := int32(r.Intn(512))
		if u > v {
			u, v = v, u
		}
		w := uint64(r.Intn(2)) // 0/1 weights
		if i%7 == 0 {
			w = ^uint64(0) >> 1 // near-max weights
		}
		edges[i] = KV{K: Key(u, v), V: w}
	}
	sorted := make([]KV, 300)
	for i := range sorted {
		sorted[i] = KV{K: uint64(i * 3), V: uint64(i)}
	}
	reversed := make([]KV, 300)
	for i := range reversed {
		reversed[i] = KV{K: uint64(1 << 40), V: 1}
		reversed[i].K -= uint64(i)
	}
	equal := make([]KV, 200)
	for i := range equal {
		equal[i] = KV{K: 42, V: uint64(i)}
	}
	return map[string][]KV{
		"empty":     nil,
		"single":    {{K: 9, V: 9}},
		"tiny":      {{K: 3, V: 1}, {K: 1, V: 2}, {K: 2, V: 3}, {K: 1, V: 4}},
		"random":    random,
		"dup-heavy": dupHeavy,
		"edges":     edges,
		"sorted":    sorted,
		"reversed":  reversed,
		"all-equal": equal,
	}
}

func oracleSort(kvs []KV) []KV {
	out := append([]KV(nil), kvs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

func oracleCombine(kvs []KV) []KV {
	s := oracleSort(kvs)
	var out []KV
	for _, kv := range s {
		if len(out) > 0 && out[len(out)-1].K == kv.K {
			out[len(out)-1].V += kv.V
			continue
		}
		out = append(out, kv)
	}
	return out
}

func TestPairsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for name, in := range genCases(r) {
		t.Run(name, func(t *testing.T) {
			got := append([]KV(nil), in...)
			scratch := Borrow(len(got))
			Pairs(got, scratch)
			Release(scratch)
			want := oracleSort(in)
			if len(got) != len(want) {
				t.Fatalf("length %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("at %d: got %v, want %v (stable order violated or missort)", i, got[i], want[i])
				}
			}
		})
	}
}

func TestCombineMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for name, in := range genCases(r) {
		t.Run(name, func(t *testing.T) {
			got := append([]KV(nil), in...)
			scratch := Borrow(len(got))
			res := Combine(got, scratch)
			Release(scratch)
			want := oracleCombine(in)
			if len(res) != len(want) {
				t.Fatalf("length %d, want %d", len(res), len(want))
			}
			for i := range res {
				if res[i] != want[i] {
					t.Fatalf("at %d: got %v, want %v", i, res[i], want[i])
				}
			}
		})
	}
}

// TestPairsRandomSweep fuzzes sizes around the insertion cutoff and the
// digit-skip boundaries.
func TestPairsRandomSweep(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(200)
		maxK := uint64(1) << uint(1+r.Intn(63))
		in := make([]KV, n)
		for i := range in {
			in[i] = KV{K: r.Uint64() % maxK, V: uint64(i)}
		}
		got := append([]KV(nil), in...)
		scratch := Borrow(n)
		Pairs(got, scratch)
		Release(scratch)
		want := oracleSort(in)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d maxK=%d) at %d: got %v want %v", trial, n, maxK, i, got[i], want[i])
			}
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	for _, uv := range [][2]int32{{0, 0}, {1, 2}, {1<<31 - 1, 1<<31 - 1}, {7, 1 << 30}} {
		k := Key(uv[0], uv[1])
		if KeyU(k) != uv[0] || KeyV(k) != uv[1] {
			t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", uv[0], uv[1], k, KeyU(k), KeyV(k))
		}
	}
	// Packed order must equal lexicographic (u, v) order.
	if !(Key(1, 5) < Key(2, 0)) || !(Key(3, 4) < Key(3, 5)) {
		t.Fatal("key order is not lexicographic")
	}
}
