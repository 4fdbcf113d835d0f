package mincut

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Lemma 4.3 states the algorithm finds *all* minimum cuts w.h.p. (there
// are at most n(n-1)/2 of them). AllMinCuts exposes that: it runs the
// trial schedule and collects every distinct minimum cut encountered.

// canonicalSideKey maps a bipartition side to a canonical string key
// (the orientation containing vertex 0 is flipped out).
func canonicalSideKey(side []bool) string {
	flip := side[0]
	buf := make([]byte, (len(side)+7)/8)
	for i, s := range side {
		if s != flip {
			buf[i/8] |= 1 << uint(i%8)
		}
	}
	return string(buf)
}

// AllMinCuts computes the set of distinct global minimum cuts of g,
// each found with probability at least successProb. The returned results
// share the same Value; each Side is a distinct bipartition (canonical
// orientation: vertex 0 outside the side).
func AllMinCuts(g *graph.Graph, st *rng.Stream, successProb float64) []*CutResult {
	if g.N < 2 {
		return nil
	}
	if !g.IsConnected() {
		// Every union of components is a zero cut; report one per
		// component to keep the output size linear.
		labels, count := g.ConnectedComponents()
		var out []*CutResult
		for comp := 0; comp < count && comp < g.N; comp++ {
			side := make([]bool, g.N)
			nonEmpty := false
			for v, l := range labels {
				if int(l) == comp {
					side[v] = true
					nonEmpty = true
				}
			}
			if nonEmpty && comp > 0 { // comp 0's complement equals comp>0 unions; keep proper sides
				out = append(out, &CutResult{Value: 0, Side: side})
			}
		}
		if len(out) == 0 {
			side := make([]bool, g.N)
			for v, l := range labels {
				side[v] = l == labels[0]
			}
			out = append(out, &CutResult{Value: 0, Side: side})
		}
		return out
	}

	trials := allCutsTrials(g.N, len(g.Edges), successProb)
	cuts := collectCuts(g, st, 0, trials)
	out := make([]*CutResult, 0, len(cuts.found))
	for _, side := range cuts.sides() {
		out = append(out, &CutResult{Value: cuts.best, Side: side, Trials: trials})
	}
	return out
}

// cutSet collects the distinct minimum cuts seen so far: a value above
// the best is ignored, a lower one starts the set over. Sides are kept
// in canonical orientation (vertex 0 outside), keyed by canonicalSideKey.
type cutSet struct {
	best  uint64
	found map[string][]bool
}

func newCutSet() *cutSet {
	return &cutSet{best: math.MaxUint64, found: map[string][]bool{}}
}

func (s *cutSet) add(val uint64, side []bool) {
	if val > s.best {
		return
	}
	if val < s.best {
		s.best = val
		clear(s.found)
	}
	key := canonicalSideKey(side)
	if _, ok := s.found[key]; !ok {
		canon := make([]bool, len(side))
		flip := side[0]
		for i, v := range side {
			canon[i] = v != flip
		}
		s.found[key] = canon
	}
}

// sides returns the set ordered by canonicalSideKey, so the output never
// depends on map iteration order.
func (s *cutSet) sides() [][]bool {
	keys := make([]string, 0, len(s.found))
	for k := range s.found {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([][]bool, len(keys))
	for i, k := range keys {
		out[i] = s.found[k]
	}
	return out
}

// collectCuts runs trials [lo, hi) of the tie-preserving schedule on the
// connected graph g, then enumerates the singleton cuts exactly — they
// can tie the minimum — and returns every distinct minimum cut seen.
func collectCuts(g *graph.Graph, st *rng.Stream, lo, hi int) *cutSet {
	cuts := newCutSet()
	first := edgeSampler(g.Edges)
	for i := lo; i < hi; i++ {
		val, sides := sequentialTrialAll(g, first, st)
		for _, side := range sides {
			cuts.add(val, side)
		}
	}
	deg := g.Degrees()
	for v := 0; v < g.N; v++ {
		if deg[v] <= cuts.best {
			side := make([]bool, g.N)
			side[v] = true
			cuts.add(deg[v], side)
		}
	}
	return cuts
}
