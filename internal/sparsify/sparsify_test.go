package sparsify

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func runUnweighted(t *testing.T, g *graph.Graph, p, s int, seed uint64) []graph.Edge {
	t.Helper()
	var sample []graph.Edge
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		st := rng.New(seed, uint32(c.Rank()), 0)
		got := Unweighted(c, 0, local, s, n, 0.5, st)
		if c.Rank() == 0 {
			sample = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sample
}

func TestUnweightedSmallSlicesTakenWhole(t *testing.T) {
	// With few local edges (µ below the Chernoff threshold), the whole
	// slice is contributed, so every edge must appear.
	g := gen.Cycle(30, 1)
	sample := runUnweighted(t, g, 3, 10, 2)
	if len(sample) != 30 {
		t.Errorf("sample has %d edges, want all 30 (threshold regime)", len(sample))
	}
}

func TestUnweightedOversampleSize(t *testing.T) {
	// Large slices: expect about (1+δ)·s edges in total.
	g := gen.ErdosRenyiM(2000, 40000, 6, gen.Config{})
	s := 4000
	sample := runUnweighted(t, g, 4, s, 3)
	lo, hi := s, 2*s
	if len(sample) < lo || len(sample) > hi {
		t.Errorf("oversample size %d outside [%d,%d]", len(sample), lo, hi)
	}
}

func TestUnweightedEmpty(t *testing.T) {
	g := graph.New(5)
	sample := runUnweighted(t, g, 2, 10, 1)
	if len(sample) != 0 {
		t.Errorf("sampled %d from empty graph", len(sample))
	}
}

func TestUnweightedCoversComponents(t *testing.T) {
	// Sampling enough edges must w.h.p. hit every component of a graph
	// made of many small cliques — the property CC relies on across
	// iterations. Here s >= m so the sample is everything.
	var g = graph.New(40)
	for c := 0; c < 10; c++ {
		base := int32(c * 4)
		for i := int32(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddEdge(base+i, base+j, 1)
			}
		}
	}
	sample := runUnweighted(t, g, 4, g.M(), 9)
	sub := &graph.Graph{N: 40, Edges: sample}
	_, k := sub.ConnectedComponents()
	if k != 10 {
		t.Errorf("sampled subgraph has %d components, want 10", k)
	}
}

// UnweightedForest is Unweighted without the sample: in both quota
// regimes the root's union-find must hold exactly the components of the
// sample Unweighted returns for the same streams, while the ranks ship at
// most n-1 words each where Unweighted ships three per sampled edge. p = 1
// runs the whole-slice loop with no sender, p = 2 with one.
func TestUnweightedForestMatchesUnweightedSample(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		s     int
		exact bool // every rank reports the root's forest as the whole graph's
	}{
		{"true sample", gen.ErdosRenyiM(2000, 40000, 6, gen.Config{}), 1500, false},
		{"whole slices", gen.ErdosRenyiM(300, 500, 8, gen.Config{}), 5000, true},
		// At p ≥ 2, µ_i = 300/p is under the Chernoff threshold, so the
		// slices are taken whole, but m > (1+δ)s: the sufficient test does
		// not see it. (At p = 1 the one slice is sampled.)
		{"whole slices, unreported", gen.ErdosRenyiM(300, 500, 8, gen.Config{}), 300, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
					const seed = 3
					sample := &graph.Graph{N: tc.g.N, Edges: runUnweighted(t, tc.g, p, tc.s, seed)}
					want, _ := sample.ConnectedComponents()

					var got []int32
					st, err := bsp.Run(p, func(c *bsp.Comm) {
						lo, hi := dist.BlockRange(tc.g.M(), p, c.Rank())
						uf := graph.NewUnionFind(0)
						exact := UnweightedForest(c, 0, tc.g.Edges[lo:hi], uint64(tc.g.M()), tc.s, tc.g.N, 0.5,
							rng.New(seed, uint32(c.Rank()), 0), uf)
						if exact != tc.exact {
							t.Errorf("rank %d: exact = %v, want %v", c.Rank(), exact, tc.exact)
						}
						if c.Rank() == 0 {
							got = uf.Labels()
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("vertex %d: forest label %d, sample label %d", v, got[v], want[v])
						}
					}
					if limit := uint64((p - 1) * (tc.g.N - 1)); st.Supersteps != 1 || st.CommVolume > limit {
						t.Errorf("%d supersteps, %d words; want 1 and ≤ (p-1)(n-1) = %d", st.Supersteps, st.CommVolume, limit)
					}
				})
			}
		})
	}
}
