package cc

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// runOnBlocks runs Parallel the way the library and the serving layer do:
// rank r reads block r of g.Edges in place, nothing is scattered.
func runOnBlocks(t testing.TB, g *graph.Graph, p int, seed uint64, opts Options) *Result {
	t.Helper()
	var res *Result
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		r := Parallel(c, g.N, g.Edges[lo:hi], rng.New(seed, uint32(c.Rank()), 0), opts)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Errorf("p=%d: %v", p, err)
	}
	return res
}

// blobs returns k dense random blobs of size vertices each, interleaved
// (vertex v sits in blob v%k) so the first-appearance labels alternate,
// followed by `isolated` vertices without edges.
func blobs(k, size, edgesPerBlob, isolated int, seed uint64) *graph.Graph {
	g := graph.New(k*size + isolated)
	s := rng.New(seed, 3, 3)
	for b := 0; b < k; b++ {
		for i := 0; i < edgesPerBlob; i++ {
			u, v := s.Intn(size), s.Intn(size)
			if u != v {
				g.AddEdge(int32(u*k+b), int32(v*k+b), 1)
			}
		}
	}
	return g
}

// firstAppearance renumbers a labelling by first appearance.
func firstAppearance(labels []int32) []int32 {
	remap := graph.GetRemap(len(labels))
	defer graph.PutRemap(remap)
	out := make([]int32, len(labels))
	for v, l := range labels {
		out[v] = remap.Of(l)
	}
	return out
}

// The two regimes of the per-rank sampler, at every machine size at once
// on one shared edge array: the label vector depends only on the
// partition (never on p, the seed's draws, or the round count), and the
// input is only ever read — under -race a single write to a block would
// collide with the other machines' reads, and the copy comparison catches
// one that restores what it wrote.
func TestParallelSharedInputSameLabels(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		opts      Options
		minRounds int
	}{
		// s = 3010^1.05 ≈ 4500 against m ≈ 60000: every rank at every p
		// draws a true sample (µ_i ≥ 560 clears the Chernoff threshold of
		// 288, k < m_i), too sparse to connect a blob in one round.
		{"sampling", blobs(3, 1000, 20000, 10, 5), Options{Epsilon: 0.1}, 2},
		// s = 220^1.25 ≈ 850 ≥ m: every rank contributes its whole slice.
		{"whole slice", multiComponentGraph(4), Options{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := firstAppearance(Sequential(tc.g).Labels)
			before := slices.Clone(tc.g.Edges)
			ps := []int{1, 2, 4, 8}
			got := make([]*Result, len(ps))
			var wg sync.WaitGroup
			for i, p := range ps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = runOnBlocks(t, tc.g, p, 11, tc.opts)
				}()
			}
			wg.Wait()
			if !slices.Equal(tc.g.Edges, before) {
				t.Fatal("Parallel wrote to its input edge array")
			}
			for i, p := range ps {
				if got[i] == nil {
					continue // runOnBlocks reported it
				}
				if !slices.Equal(got[i].Labels, want) {
					t.Errorf("p=%d: labels differ from the first-appearance relabelling of Sequential", p)
				}
				if got[i].Iterations < tc.minRounds {
					t.Errorf("p=%d: %d rounds, want ≥ %d for this regime", p, got[i].Iterations, tc.minRounds)
				}
			}
		})
	}
}

// The whole-slice exit at its boundary: with m ≤ (1+δ)s every rank's
// quota is its whole slice, the root's merged forest is exact and the
// run leaves after one labelling; one edge above, the same input takes
// the relabel broadcast and the closing edge count as well. Labels are
// the same on both sides and at every p.
func TestParallelWholeSliceBoundary(t *testing.T) {
	const n = 100
	var o Options
	o.defaults()
	boundary := int((1 + delta) * float64(sampleSize(n, o.Epsilon))) // ⌊(1+δ)s⌋ = 475
	for _, p := range []int{1, 2, 4, 8} {
		steps := make(map[int]int)
		for _, m := range []int{boundary - 1, boundary, boundary + 1} {
			g := gen.ErdosRenyiM(n, m, 9, gen.Config{})
			var res *Result
			st, err := bsp.Run(p, func(c *bsp.Comm) {
				lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
				r := Parallel(c, g.N, g.Edges[lo:hi], rng.New(3, uint32(c.Rank()), 0), Options{})
				if c.Rank() == 0 {
					res = r
				}
			})
			if err != nil {
				t.Fatalf("p=%d m=%d: %v", p, m, err)
			}
			if !slices.Equal(res.Labels, firstAppearance(Sequential(g).Labels)) {
				t.Errorf("p=%d m=%d: labels differ from the first-appearance relabelling of Sequential", p, m)
			}
			if m <= boundary && res.Iterations != 1 {
				t.Errorf("p=%d m=%d: %d rounds at or below the boundary, want 1", p, m, res.Iterations)
			}
			steps[m] = st.Supersteps
		}
		if steps[boundary-1] != steps[boundary] || steps[boundary] >= steps[boundary+1] {
			t.Errorf("p=%d: supersteps %d, %d, %d for m = boundary-1, boundary, boundary+1; want equal, equal, more",
				p, steps[boundary-1], steps[boundary], steps[boundary+1])
		}
	}
}

// An exact first round answers with the root's union-find labelling as it
// stands. ε = 2 makes s = n² ≥ m, so the run takes one round, and rank
// 0's Labels and Count must be exactly graph.ConnectedComponents': the
// first-appearance numbering over v = 0…n−1, isolated vertices included
// — vertex 0 among them, so the first label goes to a singleton.
func TestParallelExactRoundLabels(t *testing.T) {
	g := blobs(4, 60, 300, 10, 7)
	isolated := func(v int32) bool { return v%17 == 0 }
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		if !isolated(e.U) && !isolated(e.V) {
			kept = append(kept, e)
		}
	}
	g.Edges = kept
	want, count := g.ConnectedComponents()
	if slices.Contains(want[1:], want[0]) || count < 4+10+2 {
		t.Fatalf("input: vertex 0 not a singleton or too few components (%d)", count)
	}
	for _, p := range []int{1, 2, 3} {
		res := runOnBlocks(t, g, p, 5, Options{Epsilon: 2})
		if res == nil {
			continue // runOnBlocks reported it
		}
		if res.Iterations != 1 {
			t.Errorf("p=%d: %d rounds, want 1", p, res.Iterations)
		}
		if res.Count != count || !slices.Equal(res.Labels, want) {
			t.Errorf("p=%d: Count %d, labels equal %v; want graph.ConnectedComponents' (%d components)",
				p, res.Count, slices.Equal(res.Labels, want), count)
		}
	}
}
