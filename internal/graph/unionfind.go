package graph

import "sync"

// UnionFind is a disjoint-set forest with union by rank and path
// compression. It backs the root's connected-components computation in
// iterated sampling and the prefix-selection step of bulk contraction.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{}
	uf.Reset(n)
	return uf
}

// Reset restores the structure to n singleton sets, reusing the backing
// arrays when their capacity allows — the arena path of the contraction
// kernels, which burn through one union-find per recursion node.
func (uf *UnionFind) Reset(n int) {
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

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int32) int32 {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

// Union merges the sets of x and y; it reports whether they were distinct.
func (uf *UnionFind) Union(x, y int32) bool {
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

// Count returns the current number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// Connected reports whether x and y are in the same set.
func (uf *UnionFind) Connected(x, y int32) bool { return uf.Find(x) == uf.Find(y) }

// Labels returns a dense labelling: a slice mapping every element to a
// component id in [0, Count()), assigned in order of first appearance.
func (uf *UnionFind) Labels() []int32 {
	n := len(uf.parent)
	labels := make([]int32, n)
	scratch := make([]int32, n)
	uf.LabelsInto(labels, scratch)
	return labels
}

// LabelsInto is Labels with caller-provided storage: labels receives the
// dense labelling and scratch (both length ≥ len(parent)) is the
// root→label scatter table. The label assignment order (first
// appearance) is identical to Labels'. It returns the label count.
// Replaces the old map[int32]int32 remap: a dense table turns every
// hash+probe into one array write.
func (uf *UnionFind) LabelsInto(labels, scratch []int32) int {
	n := len(uf.parent)
	labels = labels[:n]
	scratch = scratch[:n]
	for i := range scratch {
		scratch[i] = -1
	}
	next := int32(0)
	for i := 0; i < n; i++ {
		r := uf.Find(int32(i))
		id := scratch[r]
		if id < 0 {
			id = next
			scratch[r] = id
			next++
		}
		labels[i] = id
	}
	return int(next)
}

// ufPool recycles union-finds across queries, like remapPool: every rank
// of a connected-components run checks one out per call.
var ufPool = sync.Pool{New: func() any { return &UnionFind{} }}

// GetUnionFind returns a pooled UnionFind reset to n singleton sets.
func GetUnionFind(n int) *UnionFind {
	uf := ufPool.Get().(*UnionFind)
	uf.Reset(n)
	return uf
}

// PutUnionFind returns a UnionFind to the pool. The caller must not use
// it afterwards.
func PutUnionFind(uf *UnionFind) { ufPool.Put(uf) }
