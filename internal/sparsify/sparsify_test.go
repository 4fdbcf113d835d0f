package sparsify

import (
	"math"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// runWeighted distributes g over p processors and draws a weighted sample
// of size s, returning it (from the root).
func runWeighted(t *testing.T, g *graph.Graph, p, s int, seed uint64) []graph.Edge {
	t.Helper()
	var sample []graph.Edge
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		_, local := dist.ScatterGraph(c, 0, in)
		st := rng.New(seed, uint32(c.Rank()), 0)
		got := Weighted(c, 0, local, s, st)
		if c.Rank() == 0 {
			sample = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sample
}

func TestWeightedSampleSize(t *testing.T) {
	g := gen.ErdosRenyiM(60, 400, 3, gen.Config{MaxWeight: 20})
	for _, p := range []int{1, 2, 4} {
		sample := runWeighted(t, g, p, 150, 42)
		if len(sample) != 150 {
			t.Errorf("p=%d: sample size %d, want 150", p, len(sample))
		}
		for _, e := range sample {
			if int(e.U) >= g.N || int(e.V) >= g.N || e.W == 0 {
				t.Fatalf("p=%d: invalid sampled edge %v", p, e)
			}
		}
	}
}

func TestWeightedProportionalToWeight(t *testing.T) {
	// A 4-edge graph with very skewed weights; draw many samples and
	// check the empirical frequency of the heavy edge (Lemma 3.1).
	g := graph.New(5)
	g.AddEdge(0, 1, 80)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 3, 5)
	g.AddEdge(3, 4, 5)
	sample := runWeighted(t, g, 2, 20000, 7)
	heavy := 0
	for _, e := range sample {
		if e.W == 80 {
			heavy++
		}
	}
	rate := float64(heavy) / float64(len(sample))
	if math.Abs(rate-0.8) > 0.02 {
		t.Errorf("heavy edge rate = %v, want ~0.8", rate)
	}
}

func TestWeightedPositionUniformity(t *testing.T) {
	// Lemma 3.1 requires every position of the sample to have the same
	// distribution. The heavy edge must appear at the first position with
	// the same frequency as anywhere else. All edges live on processor 0
	// to stress the permutation step.
	g := graph.New(3)
	g.AddEdge(0, 1, 90)
	g.AddEdge(1, 2, 10)
	firstHeavy := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		sample := runWeighted(t, g, 3, 5, uint64(trial+1000))
		if sample[0].W == 90 {
			firstHeavy++
		}
	}
	rate := float64(firstHeavy) / trials
	if math.Abs(rate-0.9) > 0.07 {
		t.Errorf("P[first sample = heavy] = %v, want ~0.9", rate)
	}
}

func TestWeightedEmptyGraph(t *testing.T) {
	g := graph.New(10) // no edges
	sample := runWeighted(t, g, 3, 50, 1)
	if len(sample) != 0 {
		t.Errorf("sampled %d edges from empty graph", len(sample))
	}
}

func TestWeightedNonRootGetsNil(t *testing.T) {
	g := gen.Cycle(20, 1)
	_, err := bsp.Run(3, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		_, local := dist.ScatterGraph(c, 0, in)
		st := rng.New(5, uint32(c.Rank()), 0)
		got := Weighted(c, 0, local, 10, st)
		if c.Rank() != 0 && got != nil {
			t.Errorf("rank %d received a sample", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSupersteps(t *testing.T) {
	// O(1) supersteps regardless of p and s.
	g := gen.ErdosRenyiM(100, 800, 4, gen.Config{MaxWeight: 3})
	var steps [2]int
	for i, p := range []int{2, 8} {
		st, err := bsp.Run(p, func(c *bsp.Comm) {
			var in *graph.Graph
			if c.Rank() == 0 {
				in = g
			}
			_, local := dist.ScatterGraph(c, 0, in)
			stream := rng.New(9, uint32(c.Rank()), 0)
			Weighted(c, 0, local, 200, stream)
		})
		if err != nil {
			t.Fatal(err)
		}
		steps[i] = st.Supersteps
	}
	if steps[0] != steps[1] {
		t.Errorf("superstep count depends on p: %v", steps)
	}
	if steps[0] > 8 {
		t.Errorf("sparsification used %d supersteps, want O(1) small", steps[0])
	}
}

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
// most n-1 words each where Unweighted ships three per sampled edge.
func TestUnweightedForestMatchesUnweightedSample(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		s     int
		exact bool // every rank reports the root's forest as the whole graph's
	}{
		{"true sample", gen.ErdosRenyiM(2000, 40000, 6, gen.Config{}), 1500, false},
		{"whole slices", gen.ErdosRenyiM(300, 500, 8, gen.Config{}), 5000, true},
		// µ_i = 75 is under the Chernoff threshold, so the slices are taken
		// whole, but m > (1+δ)s: the sufficient test does not see it.
		{"whole slices, unreported", gen.ErdosRenyiM(300, 500, 8, gen.Config{}), 300, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const p, seed = 4, 3
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
}
