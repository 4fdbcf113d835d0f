package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(99, 20, 50)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || len(back.Edges) != len(g.Edges) {
		t.Fatalf("round trip changed shape: n %d->%d, m %d->%d", g.N, back.N, len(g.Edges), len(back.Edges))
	}
	for i := range g.Edges {
		if g.Edges[i] != back.Edges[i] {
			t.Fatalf("edge %d changed: %v -> %v", i, g.Edges[i], back.Edges[i])
		}
	}
}

func TestReadEdgeListDefaultsWeight(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("3 2\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges[0].W != 1 || g.Edges[1].W != 1 {
		t.Errorf("default weight not 1: %+v", g.Edges)
	}
}

func TestReadEdgeListComments(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# header comment\n2 1\n% mid comment\n0 1 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 || len(g.Edges) != 1 || g.Edges[0].W != 7 {
		t.Errorf("parsed %+v", g)
	}
}

// TestReadEdgeListEdgeCountIsAHint: the header's edge count sizes no
// allocation beyond a small cap, so a header claiming far more edges
// than the body holds (here 80 GB worth) loads the edges that are there.
func TestReadEdgeListEdgeCountIsAHint(t *testing.T) {
	for _, in := range []string{"2 5000000000\n0 1 1\n", "2 0\n0 1 1\n"} {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if g.N != 2 || len(g.Edges) != 1 || g.Edges[0] != (Edge{U: 0, V: 1, W: 1}) {
			t.Errorf("%q parsed as %+v", in, g)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"2\n",            // short header
		"2 1\n0\n",       // short edge
		"2 1\n0 5 1\n",   // out of range
		"2 1\n0 1 0\n",   // zero weight
		"x 1\n",          // bad n
		"2 1\n0 one 1\n", // bad endpoint
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

func TestLoaderErrorsWrapErrMalformed(t *testing.T) {
	edgelist := []string{
		"",                       // empty input
		"2\n",                    // short header
		"-1 0\n",                 // negative vertex count
		"2 1\n0\n",               // short edge
		"2 1\n0 5 1\n",           // out of range
		"2 1\n-1 1 1\n",          // negative endpoint
		"2 1\n0 1 0\n",           // zero weight
		"2 1\n0 99999999999 1\n", // endpoint overflows int32
	}
	for _, in := range edgelist {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Errorf("edge list %q accepted", in)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("edge list %q: error %v does not wrap ErrMalformed", in, err)
		}
	}
	snap := []string{
		"0\n",             // short line
		"a b\n",           // unparsable endpoints
		"-1 2\n",          // negative endpoint
		"0 99999999999\n", // endpoint overflows int32
		"0 1 0\n",         // zero weight
		"0 1 x\n",         // bad weight
	}
	for _, in := range snap {
		_, err := ReadSNAP(strings.NewReader(in))
		if err == nil {
			t.Errorf("snap %q accepted", in)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("snap %q: error %v does not wrap ErrMalformed", in, err)
		}
	}
	// The error text stays descriptive: line number and offending token.
	_, err := ReadEdgeList(strings.NewReader("2 1\n0 one 1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "one") {
		t.Errorf("error lost context: %v", err)
	}
}

// Hostile weights — NaN, infinities, negatives, fractions, overflow —
// must be rejected as malformed, never silently wrapped or truncated.
func TestWeightHardening(t *testing.T) {
	cases := []struct {
		weight string
		want   string // substring of the error
	}{
		{"NaN", "NaN"},
		{"nan", "NaN"},
		{"Inf", "non-finite"},
		{"-Inf", "non-finite"},
		{"-3", "negative"},
		{"-0.5", "negative"},
		{"2.5", "non-integer"},
		{"1e500", "bad weight"},
		{"18446744073709551616", "overflows"}, // 2^64
		{"99999999999999999999999", "overflows"},
		{"0", "zero"},
		{"0x10", "bad weight"},
	}
	for _, c := range cases {
		in := "2 1\n0 1 " + c.weight + "\n"
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Errorf("edge list weight %q accepted", c.weight)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("weight %q: error %v does not wrap ErrMalformed", c.weight, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("weight %q: error %q lacks %q", c.weight, err, c.want)
		}
		if _, err := ReadSNAP(strings.NewReader("0 1 " + c.weight + "\n")); err == nil {
			t.Errorf("snap weight %q accepted", c.weight)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("snap weight %q: error %v does not wrap ErrMalformed", c.weight, err)
		}
	}
	// The format is strict decimal integers: scientific notation is
	// rejected even when integer-valued, so files stay canonical.
	if _, err := ReadEdgeList(strings.NewReader("2 1\n0 1 1e3\n")); !errors.Is(err, ErrMalformed) {
		t.Errorf("1e3: err = %v, want ErrMalformed", err)
	}
}

// Edges whose weights individually fit but whose sum wraps uint64 must
// be rejected: downstream cut values are total-weight arithmetic.
func TestTotalWeightOverflow(t *testing.T) {
	const half = "9223372036854775808" // 2^63
	in := "3 2\n0 1 " + half + "\n1 2 " + half + "\n"
	_, err := ReadEdgeList(strings.NewReader(in))
	if err == nil {
		t.Fatal("total-weight overflow accepted")
	}
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "total") {
		t.Errorf("err = %v, want ErrMalformed about the total weight", err)
	}
	if _, err := ReadSNAP(strings.NewReader("0 1 " + half + "\n1 2 " + half + "\n")); err == nil {
		t.Error("snap total-weight overflow accepted")
	}
}

func TestReadEdgeListDropsSelfLoops(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("3 2\n1 1 4\n0 2 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 {
		t.Errorf("self loop kept: %+v", g.Edges)
	}
}

func TestReadSNAP(t *testing.T) {
	in := "# Directed graph: example\n# Nodes: 5 Edges: 3\n0\t1\n3 4 7\n2 2\n1 3\n"
	g, err := ReadSNAP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 5 {
		t.Errorf("inferred n = %d, want 5", g.N)
	}
	if len(g.Edges) != 3 { // self loop (2,2) dropped
		t.Fatalf("edges = %+v", g.Edges)
	}
	if g.Edges[1].W != 7 {
		t.Errorf("weighted snap edge = %+v", g.Edges[1])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSNAPErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 1 0\n", "-1 2\n"} {
		if _, err := ReadSNAP(strings.NewReader(in)); err == nil {
			t.Errorf("snap input %q accepted", in)
		}
	}
}

func TestReadSNAPEmpty(t *testing.T) {
	g, err := ReadSNAP(strings.NewReader("# only comments\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 0 || len(g.Edges) != 0 {
		t.Errorf("empty snap: %+v", g)
	}
}

// weightedER is a G(n, m) multigraph without loops whose weights are
// uniform in [1, maxW].
func weightedER(seed uint64, n, m int, maxW uint64) *Graph {
	s := rng.New(seed, 0, 0)
	g := New(n)
	for len(g.Edges) < m {
		u, v := int32(s.Intn(n)), int32(s.Intn(n))
		if u != v {
			g.AddEdge(u, v, s.Uint64n(maxW)+1)
		}
	}
	return g
}

// TestWriteEdgeListMatchesReference: the append-based writer emits the
// fmt writer's bytes on weighted ER graphs with weights up to 2^40, and
// what it writes loads back as the same graph; so it does at the
// extremes of each column, which do not load (the weight total
// overflows, an endpoint is negative).
func TestWriteEdgeListMatchesReference(t *testing.T) {
	same := func(name string, g *Graph) *bytes.Buffer {
		t.Helper()
		var got, want bytes.Buffer
		if err := WriteEdgeList(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := refWriteEdgeList(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %d bytes written, the fmt writer wrote %d, or they differ", name, got.Len(), want.Len())
		}
		return &got
	}
	for seed, n := range []int{2, 17, 1000, 1 << 16} {
		g := weightedER(uint64(seed), n, 5000, 1<<40)
		back, err := ReadEdgeList(same(fmt.Sprintf("er n=%d", n), g))
		if err != nil || back.N != g.N || fmt.Sprint(back.Edges) != fmt.Sprint(g.Edges) {
			t.Fatalf("er n=%d: written graph does not load back (err %v)", n, err)
		}
	}
	same("extremes", &Graph{N: math.MaxInt, Edges: []Edge{
		{U: 0, V: math.MaxInt32, W: math.MaxUint64}, {U: math.MinInt32, V: -1, W: 1 << 40}}})
}

// TestReadEdgeListAllocs: a parse of a 32 768-edge body allocates a
// constant — the scanner, its buffer, the graph and its edge array —
// not a string and a field slice per line.
func TestReadEdgeListAllocs(t *testing.T) {
	var body bytes.Buffer
	if err := WriteEdgeList(&body, weightedER(1, 4096, 32768, 1<<20)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadEdgeList(bytes.NewReader(body.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("parse of a 32 768-edge body: %.0f allocations, want ≤ 8", allocs)
	}
}
