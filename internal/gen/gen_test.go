package gen

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestErdosRenyiMShape(t *testing.T) {
	g := ErdosRenyiM(100, 400, 1, Config{})
	if g.N != 100 || g.M() != 400 {
		t.Fatalf("shape (%d,%d), want (100,400)", g.N, g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Distinct edges.
	if s := g.Simplify(); s.M() != 400 {
		t.Errorf("duplicate edges generated: %d distinct", s.M())
	}
}

func TestErdosRenyiMDeterministic(t *testing.T) {
	a := ErdosRenyiM(50, 100, 7, Config{MaxWeight: 10})
	b := ErdosRenyiM(50, 100, 7, Config{MaxWeight: 10})
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	c := ErdosRenyiM(50, 100, 8, Config{MaxWeight: 10})
	same := true
	for i := range a.Edges {
		if a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestErdosRenyiMPanicsOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for m > C(n,2)")
		}
	}()
	ErdosRenyiM(4, 7, 1, Config{})
}

func TestErdosRenyiPEdgeCount(t *testing.T) {
	n, p := 300, 0.05
	g := ErdosRenyiP(n, p, 3, Config{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	expect := p * float64(n) * float64(n-1) / 2
	if math.Abs(float64(g.M())-expect) > 5*math.Sqrt(expect) {
		t.Errorf("G(n,p) produced %d edges, expected ~%.0f", g.M(), expect)
	}
	if s := g.Simplify(); s.M() != g.M() {
		t.Error("G(n,p) produced duplicates")
	}
}

func TestErdosRenyiPExtremes(t *testing.T) {
	if g := ErdosRenyiP(10, 0, 1, Config{}); g.M() != 0 {
		t.Error("p=0 produced edges")
	}
	if g := ErdosRenyiP(5, 1, 1, Config{}); g.M() != 10 {
		t.Errorf("p=1 produced %d edges, want 10", g.M())
	}
}

func TestDecodePairCoversAll(t *testing.T) {
	n := 7
	seen := map[[2]int32]bool{}
	total := int64(n * (n - 1) / 2)
	for i := int64(0); i < total; i++ {
		u, v := decodePair(i, n)
		if u < 0 || v <= u || int(v) >= n {
			t.Fatalf("decodePair(%d) = (%d,%d) invalid", i, u, v)
		}
		seen[[2]int32{u, v}] = true
	}
	if int64(len(seen)) != total {
		t.Errorf("decodePair covered %d pairs, want %d", len(seen), total)
	}
}

func TestWattsStrogatz(t *testing.T) {
	n, k := 200, 8
	g := WattsStrogatz(n, k, 0.3, 5, Config{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != n*k/2 {
		t.Errorf("WS edge count = %d, want %d", g.M(), n*k/2)
	}
	if !g.IsConnected() {
		t.Error("WS graph disconnected (possible but vanishingly unlikely at d=8)")
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd k accepted")
		}
	}()
	WattsStrogatz(10, 3, 0.3, 1, Config{})
}

func TestBarabasiAlbert(t *testing.T) {
	n, k := 300, 4
	g := BarabasiAlbert(n, k, 9, Config{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantM := k*(k+1)/2 + (n-k-1)*k
	if g.M() != wantM {
		t.Errorf("BA edge count = %d, want %d", g.M(), wantM)
	}
	if !g.IsConnected() {
		t.Error("BA graph must be connected by construction")
	}
	// Scale-free signature: max degree far above average.
	degs := graph.BuildCSR(g)
	maxDeg := 0
	for v := int32(0); int(v) < n; v++ {
		if d := degs.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 4*k {
		t.Errorf("max degree %d suspiciously low for preferential attachment", maxDeg)
	}
}

// The generator is a function of its seed: edge order included, since
// every later draw reads the endpoint list the edges were appended to.
func TestBarabasiAlbertIsAFunctionOfItsSeed(t *testing.T) {
	a, b := BarabasiAlbert(500, 8, 3, Config{}), BarabasiAlbert(500, 8, 3, Config{})
	if !slices.Equal(a.Edges, b.Edges) {
		t.Error("two calls with seed 3 returned different edge lists")
	}
	if other := BarabasiAlbert(500, 8, 4, Config{}); slices.Equal(a.Edges, other.Edges) {
		t.Error("seeds 3 and 4 returned the same edge list")
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 4000, 11, Config{})
	if g.N != 1024 {
		t.Fatalf("RMAT n = %d, want 1024", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() < 3500 {
		t.Errorf("RMAT produced only %d edges of 4000 requested", g.M())
	}
	// Skew signature: a noticeable fraction of edges in the low-id quadrant.
	low := 0
	for _, e := range g.Edges {
		if e.U < 512 && e.V < 512 {
			low++
		}
	}
	if float64(low)/float64(g.M()) < 0.3 {
		t.Errorf("RMAT lacks expected skew: %d/%d edges in low quadrant", low, g.M())
	}
}

func TestWeightsInRange(t *testing.T) {
	g := ErdosRenyiM(50, 200, 2, Config{MaxWeight: 5})
	for _, e := range g.Edges {
		if e.W < 1 || e.W > 5 {
			t.Fatalf("weight %d out of [1,5]", e.W)
		}
	}
}
