package mincut

import (
	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ParallelAllMinCuts distributes the all-minimum-cuts computation
// (Lemma 4.3) over the BSP machine: the graph is replicated, every
// processor runs its share of tie-preserving trials, and the per-
// processor cut sets are gathered and merged at the root. Rank 0's
// result set (canonical orientation, shared Value) is the answer; on a
// connected input the other ranks return nil. Communication is one graph
// replication plus one gather of at most n(n-1)/2 bit-packed sides.
func ParallelAllMinCuts(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, successProb float64) []*CutResult {
	if n < 2 {
		return nil
	}
	all := dist.AllGatherEdges(c, local)
	g := &graph.Graph{N: n, Edges: all}
	// Disconnected inputs: every rank holds the graph, so the sequential
	// handler enumerates the zero cuts from the component structure, with
	// no trials and no further communication.
	if !g.IsConnected() {
		return AllMinCuts(g, st, successProb)
	}

	trials := allCutsTrials(n, len(all), successProb)
	lo, hi := dist.BlockRange(trials, c.Size(), c.Rank())
	mine := collectCuts(g, st, lo, hi)

	// Gather every processor's (value, sides) at the root and merge.
	payload := []uint64{mine.best}
	for _, side := range mine.sides() {
		payload = append(payload, packSide(side)...)
	}
	parts := c.Gather(0, payload)
	if c.Rank() != 0 {
		return nil
	}
	sideWords := 1 + (n+63)/64
	merged := newCutSet()
	for _, part := range parts {
		for off := 1; off+sideWords <= len(part); off += sideWords {
			merged.add(part[0], unpackSide(part[off:off+sideWords]))
		}
	}
	return merged.results(trials)
}
