package cc

import (
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// samePartition reports whether two labellings induce the same partition.
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	rev := map[int32]int32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := rev[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// runParallel executes the parallel CC over p processors.
func runParallel(t testing.TB, g *graph.Graph, p int, seed uint64) *Result {
	t.Helper()
	var res *Result
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		st := rng.New(seed, uint32(c.Rank()), 0)
		r := Parallel(c, n, local, st, Options{})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func multiComponentGraph(seed uint64) *graph.Graph {
	// 5 random blobs of 40 vertices plus 20 isolated vertices.
	g := graph.New(220)
	s := rng.New(seed, 9, 9)
	for b := 0; b < 5; b++ {
		base := int32(b * 40)
		// Spanning path guarantees connectivity, then extra edges.
		for i := int32(0); i < 39; i++ {
			g.AddEdge(base+i, base+i+1, 1)
		}
		for k := 0; k < 60; k++ {
			u := base + int32(s.Intn(40))
			v := base + int32(s.Intn(40))
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
	}
	return g
}

func TestParallelMatchesSequential(t *testing.T) {
	g := multiComponentGraph(4)
	want := Sequential(g)
	if want.Count != 25 { // 5 blobs + 20 isolated
		t.Fatalf("sequential count = %d, want 25", want.Count)
	}
	for _, p := range []int{1, 2, 4, 7} {
		got := runParallel(t, g, p, 11)
		if got.Count != want.Count {
			t.Errorf("p=%d: count = %d, want %d", p, got.Count, want.Count)
		}
		if !samePartition(got.Labels, want.Labels) {
			t.Errorf("p=%d: partitions differ", p)
		}
	}
}

func TestParallelRandomGraphs(t *testing.T) {
	err := quick.Check(func(rawSeed uint16) bool {
		seed := uint64(rawSeed)
		g := gen.ErdosRenyiM(120, 160, seed, gen.Config{})
		want := Sequential(g)
		got := runParallel(t, g, 3, seed+1)
		return got.Count == want.Count && samePartition(got.Labels, want.Labels)
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Error(err)
	}
}

func TestParallelConnectedGraph(t *testing.T) {
	g := gen.WattsStrogatz(500, 8, 0.3, 3, gen.Config{})
	got := runParallel(t, g, 4, 17)
	if got.Count != 1 {
		t.Errorf("connected WS graph: count = %d", got.Count)
	}
}

// An edgeless input runs no forest pass, so nothing fills the pooled
// union-find it checks out: right after a connected solve has left one
// dirty, it must still answer n singletons.
func TestParallelEdgeless(t *testing.T) {
	const n = 10
	for _, p := range []int{1, 2, 3} {
		if got := runParallel(t, gen.Cycle(n, 1), p, 1); got.Count != 1 {
			t.Fatalf("p=%d: cycle count=%d, want 1", p, got.Count)
		}
		got := runParallel(t, graph.New(n), p, 1)
		if got.Count != n || got.Iterations != 0 {
			t.Errorf("p=%d edgeless: count=%d iters=%d", p, got.Count, got.Iterations)
		}
		for v, l := range got.Labels {
			if l != int32(v) {
				t.Fatalf("p=%d edgeless: Labels[%d] = %d, want %d", p, v, l, v)
			}
		}
	}
}

func TestParallelDeterministicSeed(t *testing.T) {
	g := multiComponentGraph(8)
	a := runParallel(t, g, 4, 5)
	b := runParallel(t, g, 4, 5)
	if a.Count != b.Count || a.Iterations != b.Iterations {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}

func TestParallelFewIterations(t *testing.T) {
	// O(1) iterations w.h.p. — on a 1000-vertex graph expect very few.
	g := gen.ErdosRenyiM(1000, 8000, 5, gen.Config{})
	got := runParallel(t, g, 4, 3)
	if got.Iterations > 6 {
		t.Errorf("took %d iterations, want O(1) small", got.Iterations)
	}
}

func TestParallelSuperstepsConstant(t *testing.T) {
	// Supersteps must not grow with p (§3.2: O(1) supersteps).
	g := gen.ErdosRenyiM(400, 4000, 6, gen.Config{})
	var steps [2]int
	for i, p := range []int{2, 8} {
		st, err := bsp.Run(p, func(c *bsp.Comm) {
			var in *graph.Graph
			if c.Rank() == 0 {
				in = g
			}
			n, local := dist.ScatterGraph(c, 0, in)
			stream := rng.New(21, uint32(c.Rank()), 0)
			Parallel(c, n, local, stream, Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		steps[i] = st.Supersteps
	}
	if diff := steps[1] - steps[0]; diff > 2 || diff < -2 {
		t.Errorf("supersteps vary with p: %v", steps)
	}
}

func TestSequentialLabelsDense(t *testing.T) {
	g := multiComponentGraph(2)
	res := Sequential(g)
	seen := make([]bool, res.Count)
	for _, l := range res.Labels {
		if int(l) >= res.Count || l < 0 {
			t.Fatalf("label %d outside [0,%d)", l, res.Count)
		}
		seen[l] = true
	}
	for l, ok := range seen {
		if !ok {
			t.Errorf("label %d unused", l)
		}
	}
}
