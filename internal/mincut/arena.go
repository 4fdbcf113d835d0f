package mincut

import (
	"sync"

	"repro/internal/graph"
)

// ksArena is the per-trial scratch allocator of recursive contraction.
// One recursion to the base case burns through O(log n) live matrices,
// mappings, and side vectors; without reuse every recursion node clones
// an O(n²) matrix and five smaller slices. The arena keeps free lists of
// released backings — a node's buffers are returned as soon as its branch
// is folded into the running best, so the next node at the same depth
// reuses them and the steady-state allocation rate of a trial drops to
// (almost) zero.
//
// An arena is single-goroutine state: check one out per trial loop with
// getKSArena and return it with putKSArena. The sync.Pool behind those
// makes concurrent trials (e.g. parallel service queries) each get their
// own arena without a global lock.
type ksArena struct {
	words [][]uint64 // matrix backings and degree vectors
	ints  [][]int32  // alive sets, mappings, class→label tables
	bools [][]bool   // cut sides
	uf    *graph.UnionFind
}

var ksArenaPool = sync.Pool{New: func() any { return &ksArena{uf: &graph.UnionFind{}} }}

func getKSArena() *ksArena  { return ksArenaPool.Get().(*ksArena) }
func putKSArena(a *ksArena) { ksArenaPool.Put(a) }

// getWords returns an uninitialized length-n slice, reusing a released
// backing when one is large enough. Free lists stay O(recursion depth)
// long, so the linear scan is cheap.
func (a *ksArena) getWords(n int) []uint64 {
	for i := len(a.words) - 1; i >= 0; i-- {
		if cap(a.words[i]) >= n {
			s := a.words[i][:n]
			a.words[i] = a.words[len(a.words)-1]
			a.words = a.words[:len(a.words)-1]
			return s
		}
	}
	return make([]uint64, n)
}

func (a *ksArena) putWords(s []uint64) { a.words = append(a.words, s) }

func (a *ksArena) getInts(n int) []int32 {
	for i := len(a.ints) - 1; i >= 0; i-- {
		if cap(a.ints[i]) >= n {
			s := a.ints[i][:n]
			a.ints[i] = a.ints[len(a.ints)-1]
			a.ints = a.ints[:len(a.ints)-1]
			return s
		}
	}
	return make([]int32, n)
}

func (a *ksArena) putInts(s []int32) { a.ints = append(a.ints, s) }

func (a *ksArena) getBools(n int) []bool {
	for i := len(a.bools) - 1; i >= 0; i-- {
		if cap(a.bools[i]) >= n {
			s := a.bools[i][:n]
			a.bools[i] = a.bools[len(a.bools)-1]
			a.bools = a.bools[:len(a.bools)-1]
			return s
		}
	}
	return make([]bool, n)
}

// putBools releases a side; a certified leaf's nil side is not kept.
func (a *ksArena) putBools(s []bool) {
	if s != nil {
		a.bools = append(a.bools, s)
	}
}

// matrixFromEdges accumulates an edge array into an arena-backed dense
// n×n matrix, renaming every endpoint through lab first when it is
// non-nil; loops (before or after renaming) are dropped and parallel
// edges summed. Release with putWords(m.W).
func (a *ksArena) matrixFromEdges(n int, edges []graph.Edge, lab []int32) *graph.Matrix {
	w := a.getWords(n * n)
	clear(w)
	for _, e := range edges {
		u, v := e.U, e.V
		if lab != nil {
			u, v = lab[u], lab[v]
		}
		if u == v {
			continue
		}
		w[int(u)*n+int(v)] += e.W
		w[int(v)*n+int(u)] += e.W
	}
	return &graph.Matrix{N: n, W: w}
}
