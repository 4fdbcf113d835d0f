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

// edgeSampler builds the weight-proportional sampler over edges that an
// eager round draws from.
func edgeSampler(edges []graph.Edge) *rng.PrefixSampler {
	weights := xsort.BorrowWords(len(edges))
	for i, e := range edges {
		weights[i] = e.W
	}
	ps := rng.NewPrefixSampler(weights)
	xsort.ReleaseWords(weights)
	return ps
}

// eagerSequential contracts g to at most t vertices using sequential
// iterated sampling: each round draws weighted edges one at a time
// straight into the union-find and stops as soon as t components remain
// or the round's budget of s draws is spent — Prefix Selection as a
// stopping time on the i.i.d. sample sequence, so the contracted prefix
// has exactly the law of "draw s, contract the longest usable prefix"
// without drawing the discarded tail — then bulk-contracts. It returns
// the contracted graph as an arena-backed dense matrix (release with
// putWords(m.W)), the arena-owned vertex mapping g.N → matrix slots
// (release with putInts), and a deterministic work count (edges scanned
// plus samples drawn plus labels touched, summed over rounds — the
// measured per-trial cost that drives dynamic trial scheduling). The
// round that reaches t adds its edges into the matrix through the
// round's labels rather than relabelling them into a combined edge
// array first: the sums are the same, so the matrix is too. With t ≥
// g.N no round runs and the matrix is g's own. If the graph has fewer
// than t connected components reachable by contraction (disconnected
// input), it stops when no edges remain.
//
// first is edgeSampler(g.Edges), which the first round draws from: a
// solve builds it once and shares it read-only with all its trials,
// since every trial's first round samples the same edges. Later rounds
// sample their own relabelled edges and build their own. The work count
// still charges the first round for its scan of g.Edges, so it is the
// same whichever trial built the sampler.
func eagerSequential(a *ksArena, g *graph.Graph, first *rng.PrefixSampler, t int, st *rng.Stream) (*graph.Matrix, []int32, uint64) {
	var work uint64
	n := g.N
	mapping := a.getInts(n)
	for i := range mapping {
		mapping[i] = int32(i)
	}
	cur := g
	if t < 2 {
		t = 2
	}
	// Round scratch is hoisted out of the loop: the graph only shrinks, so
	// first-round capacity serves every later round, and the arena's
	// union-find (idle until the recursion) is recycled with Reset.
	uf := a.uf
	labels := a.getInts(n)
	var mat *graph.Matrix
	ps := first
	for cur.N > t && len(cur.Edges) > 0 {
		if cur != g {
			ps = edgeSampler(cur.Edges)
		}
		uf.Reset(cur.N)
		draws := 0
		for s := sampleBudget(cur.N, len(cur.Edges)); draws < s && uf.Count() > t; draws++ {
			e := cur.Edges[ps.Sample(st)]
			uf.Union(e.U, e.V)
		}
		work += uint64(len(cur.Edges)) + uint64(draws) + uint64(cur.N)
		lab := labels[:cur.N]
		k := uf.LabelsInto(lab)
		for v := 0; v < n; v++ {
			mapping[v] = lab[mapping[v]]
		}
		if k <= t {
			mat = a.matrixFromEdges(k, cur.Edges, lab)
			break
		}
		cur = cur.Relabel(lab, k)
	}
	if mat == nil {
		mat = a.matrixFromEdges(cur.N, cur.Edges, nil)
	}
	a.putInts(labels)
	return mat, mapping, work
}
