// Package mincut implements the paper's exact communication-avoiding
// global minimum cut algorithm (§4) and its sequential baselines. The
// parallel algorithm replicates the graph, then first tries to prove
// that the min-degree cut λ̂ is minimum with a sparse Nagamochi–Ibaraki
// certificate (Certify) that every rank runs on the same edges; when
// that succeeds it returns λ̂ with zero trials and no randomness drawn.
// Otherwise (ParallelTrials) it runs Θ((n²/m)·polylog) independent
// trials, each of which (1) eagerly contracts the graph to ⌈√m⌉+1
// vertices with iterated sampling and bulk edge contraction, and (2)
// runs recursive contraction (Karger–Stein) with dense bulk edge
// contraction. Every trial runs whole on one processor; ranks at or
// beyond the trial count run none.
//
// The sequential baselines are Karger–Stein recursive contraction (the
// "KS" baseline, whose cache-oblivious variant the paper compares
// against) and Stoer–Wagner's deterministic maximum-adjacency-search
// algorithm (the "SW" baseline).
package mincut

import "repro/internal/graph"

// CutResult describes a global cut: its value and one side of the vertex
// partition.
type CutResult struct {
	// Value is the total weight of edges crossing the cut.
	Value uint64
	// Side marks the vertices of one side of the cut (the side not
	// containing vertex 0 unless the whole assignment was flipped —
	// callers should treat it as an unordered bipartition).
	Side []bool
	// Trials is the number of contraction trials executed (randomized
	// algorithms only): 0 when the min-degree cut is proven minimum; no
	// randomness drawn.
	Trials int
}

// Check verifies the result against g: the side must be a nonempty proper
// subset and its cut value must equal Value. It returns false for
// inconsistent results.
func (r *CutResult) Check(g *graph.Graph) bool {
	if len(r.Side) != g.N {
		return false
	}
	in := 0
	for _, s := range r.Side {
		if s {
			in++
		}
	}
	if in == 0 || in == g.N {
		return false
	}
	return g.CutValue(r.Side) == r.Value
}

// minDegreeCut returns the best singleton cut of the graph — a cheap
// deterministic upper bound folded into every randomized result.
func minDegreeCut(g *graph.Graph) (uint64, []bool) {
	v, d := g.MinDegreeVertex()
	side := make([]bool, g.N)
	if v >= 0 {
		side[v] = true
	}
	return d, side
}

// packSide encodes a boolean side as bit-packed words prefixed by length.
func packSide(side []bool) []uint64 {
	words := make([]uint64, 1+(len(side)+63)/64)
	words[0] = uint64(len(side))
	for i, s := range side {
		if s {
			words[1+i/64] |= 1 << uint(i%64)
		}
	}
	return words
}

// unpackSide decodes packSide's encoding.
func unpackSide(words []uint64) []bool {
	n := int(words[0])
	side := make([]bool, n)
	for i := range side {
		side[i] = words[1+i/64]>>uint(i%64)&1 == 1
	}
	return side
}
