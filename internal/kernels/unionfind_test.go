package kernels

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// refUnionFind is the textbook disjoint-set forest graph.UnionFind was
// until it went rank-free: union by rank over two Finds, two-pass path
// compression. It is the differential oracle and the benchmark baseline
// for the structure that replaced it.
type refUnionFind struct {
	parent []int32
	rank   []int8
	count  int
}

func (uf *refUnionFind) Reset(n int) {
	if cap(uf.parent) >= n {
		uf.parent = uf.parent[:n]
		uf.rank = uf.rank[:n]
	} else {
		uf.parent = make([]int32, n)
		uf.rank = make([]int8, n)
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.rank[i] = 0
	}
	uf.count = n
}

func (uf *refUnionFind) Find(x int32) int32 {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

func (uf *refUnionFind) Union(x, y int32) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

func (uf *refUnionFind) Connected(x, y int32) bool { return uf.Find(x) == uf.Find(y) }

// Labels is the first-appearance dense labelling of graph.UnionFind.Labels.
func (uf *refUnionFind) Labels() []int32 {
	labels := make([]int32, len(uf.parent))
	r := graph.GetRemap(len(uf.parent))
	defer graph.PutRemap(r)
	for i := range labels {
		labels[i] = r.Of(uf.Find(int32(i)))
	}
	return labels
}

// descendingChain is the order that builds the deepest tree link-by-index
// can: every union hangs the whole chain so far under one new, lower root.
func descendingChain(n int) [][2]int32 {
	ps := make([][2]int32, 0, n)
	for v := n - 1; v > 0; v-- {
		ps = append(ps, [2]int32{int32(v), int32(v - 1)})
	}
	return ps
}

// ufSeq is one Union sequence over n elements.
type ufSeq struct {
	name  string
	n     int
	pairs [][2]int32
}

// ufSequences are the sequences the differential test replays, in an
// order that takes Reset through 257 → 1 → 0 → 300 elements: the orders
// numbered against the link direction first, then seeded random ones.
func ufSequences() []ufSeq {
	const n = 257
	var asc, star, self, two [][2]int32
	for v := int32(0); v < n-1; v++ {
		asc = append(asc, [2]int32{v, v + 1})
		star = append(star, [2]int32{v, n - 1})
		self = append(self, [2]int32{v, v})
	}
	// An ascending chain over the evens and a descending one over the
	// odds, joined by the two vertices each reached last.
	for v := int32(0); v+2 < n; v += 2 {
		two = append(two, [2]int32{v, v + 2})
	}
	for v := int32(n - 2); v > 1; v -= 2 {
		two = append(two, [2]int32{v, v - 2})
	}
	two = append(two, [2]int32{n - 1, 1})
	seqs := []ufSeq{
		{"ascending-chain", n, asc},
		{"descending-chain", n, descendingChain(n)},
		{"star-into-highest", n, star},
		{"two-chains-joined-at-far-ends", n, two},
		{"self-pairs", n, self},
		{"n=1", 1, [][2]int32{{0, 0}}},
		{"n=0", 0, nil},
	}

	const rn = 300
	random := func(seed uint64, draw func(st *rng.Stream) int32) [][2]int32 {
		st := rng.New(seed, 0, 0)
		ps := make([][2]int32, 2*rn)
		for i := range ps {
			ps[i] = [2]int32{draw(st), draw(st)}
		}
		return ps
	}
	for seed := uint64(1); seed <= 4; seed++ {
		uniform := func(st *rng.Stream) int32 { return int32(st.Uint64n(rn)) }
		// Twelve distinct endpoints: nearly every pair is a repeat or a
		// self-pair.
		few := func(st *rng.Stream) int32 { return int32(st.Uint64n(12)) * 25 }
		g := gen.BarabasiAlbert(rn, 4, seed, gen.Config{})
		ba := make([][2]int32, len(g.Edges))
		for i, e := range g.Edges {
			ba[i] = [2]int32{e.U, e.V}
		}
		seqs = append(seqs,
			ufSeq{fmt.Sprintf("uniform/seed=%d", seed), rn, random(seed, uniform)},
			ufSeq{fmt.Sprintf("duplicates/seed=%d", seed), rn, random(seed, few)},
			ufSeq{fmt.Sprintf("barabasi-albert/seed=%d", seed), rn, ba})
	}
	return seqs
}

// TestUnionFindMatchesReference replays every sequence through one
// graph.UnionFind and one reference, both carried across sequences so
// Reset sees smaller and larger sizes after use: each Union must return
// the same bool, Count and Connected must agree after every step, and the
// final labelling must be identical.
func TestUnionFindMatchesReference(t *testing.T) {
	uf, ref := graph.NewUnionFind(0), &refUnionFind{}
	for _, s := range ufSequences() {
		uf.Reset(s.n)
		ref.Reset(s.n)
		st := rng.New(11, 0, 0)
		for i, pr := range s.pairs {
			if got, want := uf.Union(pr[0], pr[1]), ref.Union(pr[0], pr[1]); got != want {
				t.Fatalf("%s: step %d Union(%d,%d) = %v, reference %v", s.name, i, pr[0], pr[1], got, want)
			}
			if uf.Count() != ref.count {
				t.Fatalf("%s: step %d Count = %d, reference %d", s.name, i, uf.Count(), ref.count)
			}
			a, b := int32(st.Uint64n(uint64(s.n))), int32(st.Uint64n(uint64(s.n)))
			for _, q := range [][2]int32{pr, {a, b}, {pr[0], a}} {
				if got, want := uf.Connected(q[0], q[1]), ref.Connected(q[0], q[1]); got != want {
					t.Fatalf("%s: step %d Connected(%d,%d) = %v, reference %v", s.name, i, q[0], q[1], got, want)
				}
			}
		}
		if uf.Count() != ref.count {
			t.Fatalf("%s: Count = %d, reference %d", s.name, uf.Count(), ref.count)
		}
		labels := make([]int32, s.n)
		if k := uf.LabelsInto(labels); k != ref.count {
			t.Fatalf("%s: LabelsInto counted %d labels, reference has %d sets", s.name, k, ref.count)
		}
		for v, want := range ref.Labels() {
			if labels[v] != want {
				t.Fatalf("%s: label[%d] = %d, reference %d", s.name, v, labels[v], want)
			}
		}
	}
}

// TestUnionFindChainBound pins the amortised bound where link-by-index
// is weakest: a 2¹⁸-vertex descending chain leaves one path through every
// vertex, and 2¹⁸ Finds of its deepest vertex must then cost O(log n)
// amortised each — O(n) each would be 3·10¹⁰ steps, far past the test
// timeout.
func TestUnionFindChainBound(t *testing.T) {
	const n = 1 << 18
	uf := graph.NewUnionFind(n)
	for _, pr := range descendingChain(n) {
		if !uf.Union(pr[0], pr[1]) {
			t.Fatalf("Union(%d,%d) = false on a fresh chain", pr[0], pr[1])
		}
	}
	if uf.Count() != 1 {
		t.Fatalf("Count = %d after chaining all %d vertices", uf.Count(), n)
	}
	root := uf.Find(n - 1)
	for i := 0; i < n; i++ {
		if r := uf.Find(n - 1); r != root {
			t.Fatalf("Find(%d) = %d, then %d", n-1, root, r)
		}
	}
	// The same again through Union's own walk: every pair is already
	// connected, so each call is the compare-first path over a chain.
	uf.Reset(n)
	for _, pr := range descendingChain(n) {
		uf.Union(pr[0], pr[1])
	}
	for i := 0; i < n; i++ {
		if uf.Union(n-1, int32(i)) {
			t.Fatalf("Union(%d,%d) merged inside one set", n-1, i)
		}
	}
}
