package mincut

import (
	"math"

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
	best := uint64(math.MaxUint64)
	found := map[string][]bool{}
	record := func(val uint64, side []bool) {
		if val > best {
			return
		}
		if val < best {
			best = val
			clear(found)
		}
		key := canonicalSideKey(side)
		if _, ok := found[key]; !ok {
			canon := make([]bool, len(side))
			flip := side[0]
			for i, s := range side {
				canon[i] = s != flip
			}
			found[key] = canon
		}
	}
	first := edgeSampler(g.Edges)
	for i := 0; i < trials; i++ {
		val, sides := sequentialTrialAll(g, first, st)
		for _, side := range sides {
			record(val, side)
		}
	}
	// Singleton cuts can tie the minimum; enumerate them exactly.
	deg := g.Degrees()
	for v := 0; v < g.N; v++ {
		if deg[v] <= best {
			side := make([]bool, g.N)
			side[v] = true
			record(deg[v], side)
		}
	}
	out := make([]*CutResult, 0, len(found))
	for _, side := range found {
		out = append(out, &CutResult{Value: best, Side: side, Trials: trials})
	}
	return out
}
