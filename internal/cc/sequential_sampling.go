package cc

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// SequentialSampling runs the iterated-sampling connected-components
// algorithm on one processor without the BSP machinery: per round, sample
// s = n^(1+ε/2) edges uniformly, solve the sample with union-find, and
// relabel the remaining edge array in one sequential pass. This is the
// code path behind the paper's claim that the sampling algorithm, run
// sequentially, is competitive with a graph traversal despite doing more
// instructions — its passes are sequential scans, where BFS does one
// random access per edge endpoint.
func SequentialSampling(g *graph.Graph, st *rng.Stream, epsilon float64) *Result {
	if epsilon <= 0 {
		epsilon = 0.5
	}
	n := g.N
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = int32(i)
	}
	edges := append([]graph.Edge(nil), g.Edges...)
	s := int(math.Ceil(math.Pow(float64(n), 1+epsilon/2)))
	iters := 0
	labels := make([]int32, n)
	uf := graph.NewUnionFind(n)
	for len(edges) > 0 {
		iters++
		uf.Reset(n)
		if s >= len(edges) {
			for _, e := range edges {
				uf.Union(e.U, e.V)
			}
		} else {
			pick := rng.NewBounded(uint64(len(edges)))
			for k := 0; k < s; k++ {
				e := edges[pick.Draw(st)]
				uf.Union(e.U, e.V)
			}
		}
		uf.LabelsInto(labels)
		for v := range comp {
			comp[v] = labels[comp[v]]
		}
		out := edges[:0]
		for _, e := range edges {
			u, v := labels[e.U], labels[e.V]
			if u != v {
				out = append(out, graph.Edge{U: u, V: v, W: e.W})
			}
		}
		edges = out
	}
	// Compact final labels.
	remap := graph.GetRemap(n)
	res := &Result{Labels: make([]int32, n), Iterations: iters}
	for v := 0; v < n; v++ {
		res.Labels[v] = remap.Of(comp[v])
	}
	res.Count = remap.Len()
	graph.PutRemap(remap)
	return res
}
