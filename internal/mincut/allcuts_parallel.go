package mincut

import (
	"math"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ParallelAllMinCuts distributes the all-minimum-cuts computation
// (Lemma 4.3) over the BSP machine: the graph is replicated, every
// processor runs its share of tie-preserving trials, and the per-
// processor cut sets are gathered and merged at the root. Every
// processor returns the same result set (canonical orientation, shared
// Value). Communication is one graph replication plus one gather of at
// most n(n-1)/2 bit-packed sides.
func ParallelAllMinCuts(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, successProb float64) []*CutResult {
	if n < 2 {
		return nil
	}
	// Disconnected inputs: delegate to the sequential handler at the root
	// (zero cuts are enumerated from the component structure, no trials).
	comp := cc.Parallel(c, n, local, st.Derive(0xac), cc.Options{})
	all := dist.AllGatherEdges(c, local)
	g := &graph.Graph{N: n, Edges: all}
	if comp.Count > 1 {
		return AllMinCuts(g, st, successProb)
	}

	trials := allCutsTrials(n, len(all), successProb)
	lo, hi := dist.BlockRange(trials, c.Size(), c.Rank())

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
	first := edgeSampler(all)
	for i := lo; i < hi; i++ {
		val, sides := sequentialTrialAll(g, first, st)
		for _, side := range sides {
			record(val, side)
		}
	}
	// Singleton cuts (exact, cheap) — evaluated identically everywhere.
	deg := g.Degrees()
	for v := 0; v < n; v++ {
		if deg[v] <= best {
			side := make([]bool, n)
			side[v] = true
			record(deg[v], side)
		}
	}

	// Gather every processor's (value, sides) at the root and merge.
	payload := []uint64{best}
	for _, side := range found {
		payload = append(payload, packSide(side)...)
	}
	parts := c.Gather(0, payload)
	var out []uint64
	if c.Rank() == 0 {
		merged := map[string][]bool{}
		gBest := uint64(math.MaxUint64)
		sideWords := 1 + (n+63)/64
		for _, part := range parts {
			val := part[0]
			if val > gBest {
				continue
			}
			if val < gBest {
				gBest = val
				clear(merged)
			}
			for off := 1; off+sideWords <= len(part); off += sideWords {
				side := unpackSide(part[off : off+sideWords])
				merged[canonicalSideKey(side)] = side
			}
		}
		out = []uint64{gBest, uint64(len(merged))}
		for _, side := range merged {
			out = append(out, packSide(side)...)
		}
	}
	out = c.Broadcast(0, out)
	gBest := out[0]
	count := int(out[1])
	sideWords := 1 + (n+63)/64
	results := make([]*CutResult, 0, count)
	for k := 0; k < count; k++ {
		off := 2 + k*sideWords
		results = append(results, &CutResult{
			Value:  gBest,
			Side:   unpackSide(out[off : off+sideWords]),
			Trials: trials,
		})
	}
	return results
}
