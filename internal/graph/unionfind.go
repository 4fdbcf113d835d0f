package graph

import "sync"

// UnionFind is a rank-free disjoint-set forest: Rem's algorithm with
// splicing (Patwary, Blair and Manne, SEA 2010). Sets link by index —
// parent[v] ≤ v always, so a set's root is its least member — and Union
// walks both endpoints at once, so an edge inside an already-merged set
// costs two loads and a compare instead of two climbs to the root. Any
// linking order with compaction is O(log n) amortised per operation on
// every numbering and edge order. It backs the per-rank forest
// contraction of connected components and approximate cut, and the
// prefix selection of bulk contraction.
//
// Read components through Labels/LabelsInto, whose first-appearance
// numbering is the order of the sets' least members.
type UnionFind struct {
	parent []int32
	count  int // number of disjoint sets
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{}
	uf.Reset(n)
	return uf
}

// Reset restores the structure to n singleton sets, reusing the parent
// array when its capacity allows — the arena path of the contraction
// kernels, which burn through one union-find per recursion node.
func (uf *UnionFind) Reset(n int) {
	if cap(uf.parent) >= n {
		uf.parent = uf.parent[:n]
	} else {
		uf.parent = make([]int32, n)
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	uf.count = n
}

// Find returns the representative of x's set, halving the path it climbs.
func (uf *UnionFind) Find(x int32) int32 {
	p := uf.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// Union merges the sets of x and y; it reports whether they were distinct.
// The endpoint whose parent has the higher index climbs, re-pointed at
// the other's (lower) parent as it goes — the splice — until the two
// parents meet (same set) or the climber is a root, which is then linked.
func (uf *UnionFind) Union(x, y int32) bool {
	p := uf.parent
	px, py := p[x], p[y]
	for px != py {
		if px > py {
			p[x] = py
			if x == px {
				uf.count--
				return true
			}
			x, px = px, p[px]
		} else {
			p[y] = px
			if y == py {
				uf.count--
				return true
			}
			y, py = py, p[py]
		}
	}
	return false
}

// Count returns the current number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// Connected reports whether x and y are in the same set.
func (uf *UnionFind) Connected(x, y int32) bool { return uf.Find(x) == uf.Find(y) }

// Labels returns a dense labelling: a slice mapping every element to a
// component id in [0, Count()), assigned in order of first appearance.
func (uf *UnionFind) Labels() []int32 {
	labels := make([]int32, len(uf.parent))
	uf.LabelsInto(labels)
	return labels
}

// LabelsInto is Labels with caller-provided storage (length ≥
// len(parent)); it returns the label count. It is one pass and needs no
// scatter table: a set first appears at its least member, its root, and
// every other member v has parent[v] < v, already labelled with the set.
func (uf *UnionFind) LabelsInto(labels []int32) int {
	labels = labels[:len(uf.parent)]
	next := int32(0)
	for v, pv := range uf.parent {
		if int(pv) == v {
			labels[v] = next
			next++
		} else {
			labels[v] = labels[pv]
		}
	}
	return int(next)
}

// ufPool recycles union-finds across queries, like remapPool: every rank
// of a connected-components run checks one out per call.
var ufPool = sync.Pool{New: func() any { return &UnionFind{} }}

// GetUnionFind returns a pooled UnionFind holding whatever its last user
// left: every use starts with Reset, so the pool does not fill n words
// that the first use fills again.
func GetUnionFind() *UnionFind { return ufPool.Get().(*UnionFind) }

// PutUnionFind returns a UnionFind to the pool. The caller must not use
// it afterwards.
func PutUnionFind(uf *UnionFind) { ufPool.Put(uf) }
