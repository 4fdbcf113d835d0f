package cc

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestParallelChecksEveryEdge corrupts one edge at a time and wants every
// run to fail with graph.ErrInvalidEdge — not an index panic, not an
// answer. ε = 2 makes round 1 exact (s = n² ≥ m: the forest pass reads
// every edge); ε = 0.01 makes it sample under a tenth of each block, so
// most of the corrupt edges are met first by the relabel pass.
func TestParallelChecksEveryEdge(t *testing.T) {
	g := gen.ErdosRenyiM(2000, 40_000, 7, gen.Config{})
	kinds := map[string]func(e *graph.Edge){
		"out_of_range": func(e *graph.Edge) { e.V = 1 << 30 },
		"negative":     func(e *graph.Edge) { e.U = -3 },
		"loop":         func(e *graph.Edge) { e.V = e.U },
		"zero_weight":  func(e *graph.Edge) { e.W = 0 },
	}
	for _, eps := range []float64{2, 0.01} {
		for _, p := range []int{1, 3} {
			for name, corrupt := range kinds {
				for j := 0; j < len(g.Edges); j += 4999 {
					es := slices.Clone(g.Edges)
					corrupt(&es[j])
					_, err := bsp.Run(p, func(c *bsp.Comm) {
						lo, hi := dist.BlockRange(len(es), p, c.Rank())
						Parallel(c, g.N, es[lo:hi], rngFor(c), Options{Epsilon: eps})
					})
					if !errors.Is(err, graph.ErrInvalidEdge) {
						t.Fatalf("ε=%g p=%d %s at %d: error %v, want graph.ErrInvalidEdge", eps, p, name, j, err)
					}
				}
			}
		}
	}
}
