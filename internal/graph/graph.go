// Package graph provides the weighted undirected graph model of the paper
// (§2.3): vertices 0..n-1, an edge multiset with positive integer weights,
// and the fundamental operations the algorithms build on — loop removal,
// parallel-edge combination, relabelling/contraction (§2.4), exact
// connectivity, and cut evaluation. It also defines the compact
// representations used by the distributed algorithms: plain edge arrays,
// CSR adjacency for traversals, and dense adjacency matrices for the
// recursive contraction step.
package graph

import (
	"errors"
	"fmt"

	xsort "repro/internal/sort"
)

// Edge is one weighted undirected edge. The endpoint order carries no
// meaning; Normalize establishes U <= V.
type Edge struct {
	U, V int32
	W    uint64
}

// Normalize returns the edge with its endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// IsLoop reports whether both endpoints coincide.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Graph is a weighted undirected multigraph in edge-array form, the
// representation the distributed algorithms slice across processors.
type Graph struct {
	N     int    // number of vertices; ids are 0..N-1
	Edges []Edge // may contain parallel edges but no loops
}

// New returns an empty graph on n vertices.
func New(n int) *Graph { return &Graph{N: n} }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	e := make([]Edge, len(g.Edges))
	copy(e, g.Edges)
	return &Graph{N: g.N, Edges: e}
}

// AddEdge appends an undirected edge of weight w. Loops are ignored.
// It panics on out-of-range endpoints or zero weight.
func (g *Graph) AddEdge(u, v int32, w uint64) {
	if u < 0 || v < 0 || int(u) >= g.N || int(v) >= g.N {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, g.N))
	}
	if w == 0 {
		panic("graph: zero-weight edge")
	}
	if u == v {
		return
	}
	g.Edges = append(g.Edges, Edge{U: u, V: v, W: w})
}

// M returns the number of stored edges (parallel edges counted separately).
func (g *Graph) M() int { return len(g.Edges) }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() uint64 {
	var t uint64
	for _, e := range g.Edges {
		t += e.W
	}
	return t
}

// Degrees returns the weighted degree of every vertex.
func (g *Graph) Degrees() []uint64 {
	d := make([]uint64, g.N)
	for _, e := range g.Edges {
		d[e.U] += e.W
		d[e.V] += e.W
	}
	return d
}

// Valid reports whether e may be an edge of a graph on n ≥ 0 vertices:
// both endpoints in [0, n), no loop, a positive weight. It is the one
// definition of edge validity — ValidateEdges decides with it, and the
// connected-components kernel calls it on its first read of each edge —
// and it inlines into a loop as a few compares. (A negative endpoint
// converts to a uint above any vertex count.)
func (e Edge) Valid(n int) bool {
	return uint(e.U) < uint(n) && uint(e.V) < uint(n) && e.U != e.V && e.W != 0
}

// ErrInvalidEdge is what a kernel that checks its edges as it reads them
// panics with on one that is not Valid. It names no edge: a rank sees
// only its block, so the caller re-derives Validate's error, which names
// the lowest invalid index.
var ErrInvalidEdge = errors.New("graph: invalid edge")

// Validate checks structural invariants: endpoints in range, no loops,
// positive weights. It returns a descriptive error for the first violation.
func (g *Graph) Validate() error {
	return ValidateEdges(g.N, g.Edges, 0)
}

// ValidateEdges is Validate over one block of an n-vertex graph's edge
// array; base is the block's offset in the whole array, so an error
// names the edge by its global index. Checking the blocks of a partition
// in order and keeping the first error is exactly Validate.
func ValidateEdges(n int, edges []Edge, base int) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", n)
	}
	for i, e := range edges {
		if e.Valid(n) {
			continue
		}
		switch {
		case e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n:
			return fmt.Errorf("graph: edge %d (%d,%d) out of range for n=%d", base+i, e.U, e.V, n)
		case e.U == e.V:
			return fmt.Errorf("graph: edge %d is a loop at %d", base+i, e.U)
		default:
			return fmt.Errorf("graph: edge %d has zero weight", base+i)
		}
	}
	return nil
}

// Simplify combines parallel edges (summing weights) and drops loops,
// returning a simple weighted graph over the same vertices.
func (g *Graph) Simplify() *Graph {
	return &Graph{N: g.N, Edges: CombineParallel(g.Edges)}
}

// CombineParallel sorts the edges by normalized endpoints and merges
// parallel edges by summing their weights. Loops are removed. The input
// slice is not modified. The sort+merge runs over packed (U<<32|V, W)
// pairs through the pooled LSD radix kernel, so it is a handful of
// counting scans with no comparator dispatch and no steady-state
// allocation beyond the returned slice.
func CombineParallel(edges []Edge) []Edge {
	kvs := xsort.Borrow(len(edges))[:0]
	for _, e := range edges {
		if e.IsLoop() {
			continue
		}
		e = e.Normalize()
		kvs = append(kvs, xsort.KV{K: xsort.Key(e.U, e.V), V: e.W})
	}
	scratch := xsort.Borrow(len(kvs))
	merged := xsort.Combine(kvs, scratch)
	out := make([]Edge, len(merged))
	for i, kv := range merged {
		out[i] = Edge{U: xsort.KeyU(kv.K), V: xsort.KeyV(kv.K), W: kv.V}
	}
	xsort.Release(scratch)
	xsort.Release(kvs)
	return out
}

// Relabel returns a new graph with every edge (u,v) replaced by
// (mapping[u], mapping[v]); loops produced by the mapping are dropped and
// parallel edges combined. newN is the vertex count of the image.
// This is Bulk Edge Contraction in its sequential form (§4.1). The
// rename, sort, and combine are fused over packed key/weight pairs: one
// pass packs the renamed survivors straight into radix scratch, so no
// intermediate edge array is materialized.
func (g *Graph) Relabel(mapping []int32, newN int) *Graph {
	kvs := xsort.Borrow(len(g.Edges))[:0]
	for _, e := range g.Edges {
		u, v := mapping[e.U], mapping[e.V]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		kvs = append(kvs, xsort.KV{K: xsort.Key(u, v), V: e.W})
	}
	scratch := xsort.Borrow(len(kvs))
	merged := xsort.Combine(kvs, scratch)
	out := &Graph{N: newN, Edges: make([]Edge, len(merged))}
	for i, kv := range merged {
		out.Edges[i] = Edge{U: xsort.KeyU(kv.K), V: xsort.KeyV(kv.K), W: kv.V}
	}
	xsort.Release(scratch)
	xsort.Release(kvs)
	return out
}

// CutValue returns the total weight of edges crossing the cut described by
// side: vertices v with side[v] == true form the cut V'.
func (g *Graph) CutValue(side []bool) uint64 {
	var c uint64
	for _, e := range g.Edges {
		if side[e.U] != side[e.V] {
			c += e.W
		}
	}
	return c
}

// DegreeCut returns the value of the singleton cut {v}: the weighted
// degree of v. The minimum over all v upper-bounds the minimum cut.
func (g *Graph) DegreeCut(v int32) uint64 {
	var c uint64
	for _, e := range g.Edges {
		if e.U == v || e.V == v {
			c += e.W
		}
	}
	return c
}

// MinDegreeVertex returns the vertex of smallest weighted degree and that
// degree. Useful as a trivial upper bound for the minimum cut.
func (g *Graph) MinDegreeVertex() (int32, uint64) {
	d := g.Degrees()
	best := int32(0)
	for v := 1; v < g.N; v++ {
		if d[v] < d[best] {
			best = int32(v)
		}
	}
	if g.N == 0 {
		return -1, 0
	}
	return best, d[best]
}
