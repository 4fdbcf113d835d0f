package mincut

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
	xsort "repro/internal/sort"
)

// sigma is the sparsification exponent: iterated sampling draws
// s = n^(1+sigma) edges per round (§2.4 fixes 0 < σ < 1).
const sigma = 0.5

// sampleBudget returns the iterated-sampling batch size for a graph with
// nCur live vertices and m edges, clamped to useful bounds.
func sampleBudget(nCur, m int) int {
	s := int(math.Ceil(math.Pow(float64(nCur), 1+sigma)))
	if s < 64 {
		s = 64
	}
	if s > 2*m {
		s = 2 * m
	}
	if s < 1 {
		s = 1
	}
	return s
}

// prefixContract processes sampled edges in order, contracting as many as
// possible while at least t components remain (Prefix Selection + Bulk
// Edge Contraction, §2.4). It mutates uf and returns the new component
// count.
func prefixContract(uf *graph.UnionFind, sample []graph.Edge, t int) int {
	for _, e := range sample {
		if uf.Count() <= t {
			break
		}
		uf.Union(e.U, e.V)
	}
	return uf.Count()
}

// eagerSequential contracts g to at most t vertices using sequential
// iterated sampling: each round draws weighted edges one at a time
// straight into the union-find and stops as soon as t components remain
// or the round's budget of s draws is spent — Prefix Selection as a
// stopping time on the i.i.d. sample sequence, so the contracted prefix
// has exactly the law of "draw s, contract the longest usable prefix"
// without drawing the discarded tail — then bulk-contracts. It returns
// the contracted simple graph, the vertex mapping g.N → contracted ids,
// and a deterministic work count (edges scanned plus samples drawn plus
// labels touched, summed over rounds — the measured per-trial cost that
// drives dynamic trial scheduling). If the graph has fewer than t
// connected components reachable by contraction (disconnected input), it
// stops when no edges remain.
func eagerSequential(g *graph.Graph, t int, st *rng.Stream) (*graph.Graph, []int32, uint64) {
	var work uint64
	n := g.N
	mapping := make([]int32, n)
	for i := range mapping {
		mapping[i] = int32(i)
	}
	cur := g
	if t < 2 {
		t = 2
	}
	// Round scratch is hoisted out of the loop: the graph only shrinks, so
	// first-round capacity serves every later round, and the union-find is
	// recycled with Reset.
	var uf *graph.UnionFind
	var labels, lscratch []int32
	for cur.N > t && len(cur.Edges) > 0 {
		weights := xsort.BorrowWords(len(cur.Edges))
		for i, e := range cur.Edges {
			weights[i] = e.W
		}
		ps := rng.NewPrefixSampler(weights)
		xsort.ReleaseWords(weights)
		if uf == nil {
			uf = graph.NewUnionFind(cur.N)
			labels = make([]int32, cur.N)
			lscratch = make([]int32, cur.N)
		} else {
			uf.Reset(cur.N)
		}
		draws := 0
		for s := sampleBudget(cur.N, len(cur.Edges)); draws < s && uf.Count() > t; draws++ {
			e := cur.Edges[ps.Sample(st)]
			uf.Union(e.U, e.V)
		}
		work += uint64(len(cur.Edges)) + uint64(draws) + uint64(cur.N)
		lab := labels[:cur.N]
		uf.LabelsInto(lab, lscratch[:cur.N])
		next := cur.Relabel(lab, uf.Count())
		for v := 0; v < n; v++ {
			mapping[v] = lab[mapping[v]]
		}
		cur = next
	}
	return cur, mapping, work
}
