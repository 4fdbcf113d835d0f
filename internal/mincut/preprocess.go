package mincut

import (
	"repro/internal/graph"
)

// The bounds of the paper assume edge weights bounded by the minimum cut
// value times a polynomial in n (§2.3); Karger–Stein §7.1 give a
// preprocessing step that removes the assumption without changing any
// minimum cut: an edge whose weight strictly exceeds an upper bound U on
// the minimum cut value cannot cross any minimum cut (a single crossing
// edge heavier than the cut value is a contradiction), so such edges can
// be contracted away up front.

// ContractHeavyEdges contracts every edge of weight > bound and returns
// the contracted graph together with the mapping from g's vertices to
// the contracted ones. bound must be at least the minimum cut value λ:
// the smallest weighted degree (g.MinDegreeVertex()) or the CutValue of
// any side always is. An estimate that can fall below λ, such as
// ApproxMinCut's power-of-two level, is not: contracting at it can
// merge a minimum cut's edge and raise the cut. Given a valid bound,
// all minimum cuts survive exactly: lifting a side
// through the mapping recovers a side of equal value in g. Contracting
// can cascade — merged parallel edges may themselves exceed the bound —
// so the reduction runs to a fixed point.
func ContractHeavyEdges(g *graph.Graph, bound uint64) (*graph.Graph, []int32) {
	n := g.N
	mapping := make([]int32, n)
	for i := range mapping {
		mapping[i] = int32(i)
	}
	cur := g
	for {
		uf := graph.NewUnionFind(cur.N)
		merged := false
		// Combine parallel edges first so parallel bundles heavier than
		// the bound are caught.
		simple := cur.Simplify()
		for _, e := range simple.Edges {
			if e.W > bound {
				if uf.Union(e.U, e.V) {
					merged = true
				}
			}
		}
		if !merged {
			return simple, mapping
		}
		labels := uf.Labels()
		next := simple.Relabel(labels, uf.Count())
		for v := 0; v < n; v++ {
			mapping[v] = labels[mapping[v]]
		}
		cur = next
	}
}
