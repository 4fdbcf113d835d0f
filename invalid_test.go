package camc

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sparsify"
)

func TestInvalidGraphRejected(t *testing.T) {
	g := NewGraph(2)
	g.Edges = append(g.Edges, Edge{U: 0, V: 9, W: 1})
	if _, err := MinCut(g, Options{}); err == nil {
		t.Error("MinCut accepted corrupt graph")
	}
	if _, err := ApproxMinCut(g, Options{}); err == nil {
		t.Error("ApproxMinCut accepted corrupt graph")
	}
	if _, err := ConnectedComponents(g, Options{}); err == nil {
		t.Error("ConnectedComponents accepted corrupt graph")
	}
	if _, err := MinCut(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}

	// The error contract, case by case: ConnectedComponents checks the
	// edges inside its one pass and validates only after the run fails,
	// the cut algorithms validate first; all must return g.Validate()'s
	// error.
	for _, p := range []int{1, 2, 4} {
		for _, tc := range invalidCases(t, p) {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				checkRejected(t, tc.g, tc.valid, Options{Processors: p, Seed: 1, Epsilon: tc.eps})
			})
		}
	}
	for _, p := range []int{1, 2, 4} {
		opts := Options{Processors: p}
		if _, err := ConnectedComponents(nil, opts); err == nil || err.Error() != "core: nil graph" {
			t.Errorf("p=%d: ConnectedComponents(nil) = %v", p, err)
		}
		if _, err := ApproxMinCut(nil, opts); err == nil {
			t.Errorf("p=%d: ApproxMinCut accepted a nil graph", p)
		}
		if _, err := core.AllMinCuts(nil, opts); err == nil {
			t.Errorf("p=%d: AllMinCuts accepted a nil graph", p)
		}
	}
}

// invalidCase is one corrupt input, the valid graph it was made from,
// and the ε its CC run takes.
type invalidCase struct {
	name     string
	g, valid *Graph
	eps      float64
}

// invalidCases corrupts a small unit-weight graph one way per case, at
// positions chosen against the p-block partition, and a sampling-regime
// graph at an edge its round-1 sample does not draw.
func invalidCases(t *testing.T, p int) []invalidCase {
	base := ErdosRenyi(64, 300, 5, GenConfig{})
	m := base.M()
	mid := m / 2
	corrupt := func(name string, n int, edit func(es []Edge)) invalidCase {
		g := &Graph{N: n, Edges: slices.Clone(base.Edges)}
		edit(g.Edges)
		return invalidCase{name: name, g: g, valid: base}
	}
	_, firstHi := dist.BlockRange(m, p, 0)
	lastLo, _ := dist.BlockRange(m, p, p-1)
	cases := []invalidCase{
		corrupt("u_out_of_range", 64, func(es []Edge) { es[mid].U = 64 }),
		corrupt("v_out_of_range", 64, func(es []Edge) { es[mid].V = 1 << 30 }),
		corrupt("negative_endpoint", 64, func(es []Edge) { es[mid].U = -1 }),
		corrupt("loop", 64, func(es []Edge) { es[mid].V = es[mid].U }),
		corrupt("zero_weight", 64, func(es []Edge) { es[mid].W = 0 }),
		corrupt("last_block", 64, func(es []Edge) { es[m-1].V = es[m-1].U }),
		// Block 0's bad edge is its last, the last block's its first:
		// the higher rank meets its own first, the error names block 0's.
		corrupt("two_blocks", 64, func(es []Edge) { es[firstHi-1].W = 0; es[lastLo].U = 99 }),
		corrupt("n=-1", -1, func([]Edge) {}),
		{name: "n=-1/no_edges", g: &Graph{N: -1}, valid: base},
		{name: "n=0", g: &Graph{N: 0, Edges: []Edge{{U: 0, V: 1, W: 1}}}, valid: base},
		{name: "n=1", g: &Graph{N: 1, Edges: []Edge{{U: 0, V: 0, W: 1}}}, valid: base},
		{name: "n=1/out_of_range", g: &Graph{N: 1, Edges: []Edge{{U: 0, V: 1, W: 1}}}, valid: base},
	}

	// Sampling regime: s = ⌈2000^1.005⌉ ≈ 2 077 of m = 40 000, so round 1
	// draws under a tenth of every block.
	const eps = 0.01
	sg := ErdosRenyi(2000, 40_000, 7, GenConfig{})
	for i := range sg.Edges {
		sg.Edges[i].W = uint64(i) + 1 // the weight names the edge
	}
	j := sampledOut(t, sg, p, 1, eps)
	bad := &Graph{N: sg.N, Edges: slices.Clone(sg.Edges)}
	bad.Edges[j].V = bad.Edges[j].U
	return append(cases, invalidCase{name: "sampled_out", g: bad, valid: sg, eps: eps})
}

// sampledOut returns the first index of g's last p-block that round 1 of
// a CC run (seed, ε) does not draw. The forest pass draws exactly what
// sparsify.Unweighted draws from the same stream at the same sample size
// — cc's s = ⌈n^(1+ε/2)⌉, δ = 0.5 — so replaying that names the draws by
// weight; g's weights must be 1..m.
func sampledOut(t *testing.T, g *Graph, p int, seed uint64, eps float64) int {
	t.Helper()
	s := int(math.Ceil(math.Pow(float64(g.N), 1+eps/2)))
	drawn := make([]bool, g.M())
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(g.M(), p, c.Rank())
		st := rng.New(seed, uint32(c.Rank()), 0)
		for _, e := range sparsify.Unweighted(c, 0, g.Edges[lo:hi], s, g.N, 0.5, st) {
			drawn[e.W-1] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := dist.BlockRange(g.M(), p, p-1)
	if j := slices.Index(drawn[lo:hi], false); j >= 0 && slices.Contains(drawn, true) {
		return lo + j
	}
	t.Fatalf("p=%d: round 1 draws the whole last block or nothing; not a sampling regime", p)
	return 0
}

// checkRejected runs every library entry on g and wants g.Validate()'s
// error, byte for byte, from each, with g's edges untouched; then a CC
// call on valid, the same shape, must answer exactly — the machine the
// failed run dropped is replaced.
func checkRejected(t *testing.T, g, valid *Graph, opts Options) {
	t.Helper()
	want := g.Validate()
	if want == nil {
		t.Fatal("the case is a valid graph")
	}
	before := slices.Clone(g.Edges)
	same := func(entry string, err error) {
		t.Helper()
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want %q", entry, err, want)
		}
	}
	_, err := ConnectedComponents(g, opts)
	same("ConnectedComponents", err)
	if !slices.Equal(g.Edges, before) {
		t.Error("ConnectedComponents wrote the caller's edges")
	}
	_, err = MinCut(g, opts)
	same("MinCut", err)
	_, err = ApproxMinCut(g, opts)
	same("ApproxMinCut", err)
	_, err = core.AllMinCuts(g, opts)
	same("AllMinCuts", err)

	res, err := ConnectedComponents(valid, opts)
	if err != nil {
		t.Fatalf("valid call after the failed one: %v", err)
	}
	labels, count := SequentialCC(valid)
	if res.Count != count || !slices.Equal(res.Labels, labels) {
		t.Errorf("valid call after the failed one: %d components, want %d (labels equal: %v)",
			res.Count, count, slices.Equal(res.Labels, labels))
	}
}

// FuzzConnectedComponentsInput feeds the library raw edge arrays on up
// to 64 vertices — out-of-range and negative endpoints, loops and zero
// weights included — at p = 1..4. An input g.Validate() rejects must
// return that error; any other must match the sequential labelling.
//
// Encoding: byte 0 is the vertex count (int8, reduced mod 65), byte 1
// picks p, then three bytes an edge: U and V as int8, W as a byte.
func FuzzConnectedComponentsInput(f *testing.F) {
	f.Add([]byte{4, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1})
	f.Add([]byte{6, 3, 0, 1, 1, 2, 3, 5, 4, 5, 1, 5, 0, 2})
	f.Add([]byte{64, 2, 0, 63, 1, 63, 64, 1}) // V out of range
	f.Add([]byte{8, 0, 0, 1, 1, 3, 3, 1})     // a loop
	f.Add([]byte{8, 2, 0, 1, 1, 2, 3, 0})     // a zero weight
	f.Add([]byte{8, 3, 0xff, 1, 1})           // a negative endpoint
	f.Add([]byte{0xff, 1, 0, 1, 1})           // a negative vertex count
	f.Add([]byte{0, 2, 0, 1, 1})              // n = 0 with an edge
	f.Add([]byte{1, 1})                       // n = 1, no edges
	f.Add([]byte{40, 3, 1, 2, 7, 2, 3, 7, 5, 6, 7, 6, 1, 7, 9, 10, 7, 39, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(int8(data[0])) % 65
		p := 1 + int(data[1]%4)
		g := &Graph{N: n}
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			g.Edges = append(g.Edges, Edge{U: int32(int8(b[0])), V: int32(int8(b[1])), W: uint64(b[2])})
		}
		before := slices.Clone(g.Edges)
		res, err := ConnectedComponents(g, Options{Processors: p})
		if !slices.Equal(g.Edges, before) {
			t.Fatal("ConnectedComponents wrote the caller's edges")
		}
		if want := g.Validate(); want != nil {
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("n=%d p=%d: error %v, want %q", n, p, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("n=%d p=%d: valid graph rejected: %v", n, p, err)
		}
		labels, count := SequentialCC(g)
		if res.Count != count || !slices.Equal(res.Labels, labels) {
			t.Fatalf("n=%d p=%d: %d components %v, want %d %v", n, p, res.Count, res.Labels, count, labels)
		}
	})
}
