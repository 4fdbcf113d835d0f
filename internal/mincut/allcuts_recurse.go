package mincut

import (
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Tie-preserving variants of the trial machinery. The single-cut trial
// returns one minimum of the base case; here every base case enumerates
// all tied minimum cuts and the recursion propagates the whole tied set,
// which is what makes Lemma 4.3 ("finds all minimum cuts w.h.p.")
// effective: a trial in which several minimum cuts survive contraction
// reports all of them.

// maxTiedSides caps the tied-set size per recursion node; a graph has at
// most n(n-1)/2 minimum cuts overall, and intermediate sets beyond the
// cap add nothing because further trials rediscover missing cuts.
func maxTiedSides(n int) int {
	c := n * (n - 1) / 2
	if c < 4 {
		c = 4
	}
	if c > 4096 {
		c = 4096
	}
	return c
}

// allCutsBaseSize is the tie-preserving recursion's own base case: it
// must enumerate every tied cut, which only the 2^(b-1) Gray-code walk
// does, so it stays small while the single-cut BaseCaseSize grew.
const allCutsBaseSize = 9

// bruteForceAll enumerates every bipartition (Gray-code order, O(n) per
// step) and returns all sides achieving the minimum cut value.
func bruteForceAll(m *graph.Matrix) (uint64, [][]bool) {
	n := m.N
	side := make([]bool, n)
	best := uint64(math.MaxUint64)
	var sides [][]bool
	var cur int64
	for g := uint32(1); g < uint32(1)<<(n-1); g++ {
		v := bits.TrailingZeros32(g) + 1
		row := m.W[v*n : (v+1)*n]
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			if side[u] != side[v] {
				cur -= int64(row[u])
			} else {
				cur += int64(row[u])
			}
		}
		side[v] = !side[v]
		switch {
		case uint64(cur) < best:
			best = uint64(cur)
			sides = sides[:0]
			sides = append(sides, append([]bool(nil), side...))
		case uint64(cur) == best:
			sides = append(sides, append([]bool(nil), side...))
		}
	}
	return best, sides
}

// ksRecurseAll is ksRecurse with tie preservation: both branches'
// tied-minimum sets are merged (deduplicated by canonical key).
// Contraction scratch comes from the arena; the lifted sides escape into
// the tied set and so stay freshly allocated.
func ksRecurseAll(a *ksArena, m *graph.Matrix, st *rng.Stream) (uint64, [][]bool) {
	n := m.N
	if n <= allCutsBaseSize {
		return bruteForceAll(m)
	}
	t := recursionTarget(n)
	best := uint64(math.MaxUint64)
	seen := map[string]bool{}
	var sides [][]bool
	limit := maxTiedSides(n)
	for branch := 0; branch < 2; branch++ {
		cm, mapping := a.contractTo(m, t, st)
		val, sub := ksRecurseAll(a, cm, st)
		a.putWords(cm.W)
		if val > best {
			a.putInts(mapping)
			continue
		}
		if val < best {
			best = val
			sides = sides[:0]
			clear(seen)
		}
		for _, s := range sub {
			if len(sides) >= limit {
				break
			}
			lifted := make([]bool, n)
			for v := 0; v < n; v++ {
				lifted[v] = s[mapping[v]]
			}
			k := canonicalSideKey(lifted)
			if !seen[k] {
				seen[k] = true
				sides = append(sides, lifted)
			}
		}
		a.putInts(mapping)
	}
	return best, sides
}

// sequentialTrialAll is one Eager+Recursive trial that reports every
// tied minimum cut it encounters, lifted to g's vertices. first is
// edgeSampler(g.Edges), shared by every trial of a call.
func sequentialTrialAll(g *graph.Graph, first *rng.PrefixSampler, st *rng.Stream) (uint64, [][]bool) {
	a := getKSArena()
	defer putKSArena(a)
	mat, mapping, _ := eagerSequential(a, g, first, eagerTarget(len(g.Edges)), st)
	defer a.putInts(mapping)
	defer a.putWords(mat.W)
	if mat.N < 2 {
		v, s := minDegreeCut(g)
		return v, [][]bool{s}
	}
	val, sides := ksRecurseAll(a, mat, st)
	out := make([][]bool, len(sides))
	for i, s := range sides {
		lifted := make([]bool, g.N)
		for v := 0; v < g.N; v++ {
			lifted[v] = s[mapping[v]]
		}
		out[i] = lifted
	}
	return val, out
}
