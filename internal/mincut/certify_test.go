package mincut

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// FuzzCertify holds the sparse certificate to cutsAtLeast's promise: when
// it says every cut weighs at least the bound, Stoer–Wagner must agree,
// and the edge array it read must come back untouched. The first byte
// sizes a 2–12 vertex graph, the second is the bound, and every further
// byte triple (u, v, 1 + w mod 8) adds an edge — parallel edges and
// loops included. The seeds below run on every plain `go test`.
func FuzzCertify(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 3})                                                                         // one edge: certified at its weight
	f.Add([]byte{0, 5, 0, 1, 3})                                                                         // …and refused one above it
	f.Add([]byte{1, 0})                                                                                  // no edges, bound 0: trivially true
	f.Add([]byte{1, 1})                                                                                  // no edges: disconnected, refused
	f.Add([]byte{1, 2, 0, 0, 5, 0, 1, 0, 1, 2, 0, 2, 0, 0})                                              // a triangle with a heavy loop
	f.Add([]byte{2, 3, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 1, 3, 0, 2, 3, 0})                            // K4: λ = 3
	f.Add([]byte{2, 4, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 1, 3, 0, 2, 3, 0})                            // K4 above λ
	f.Add([]byte{4, 2, 0, 1, 7, 1, 2, 7, 2, 0, 7, 3, 4, 7, 4, 5, 7, 5, 3, 7, 0, 3, 0, 1, 4, 0})          // two heavy triangles, λ = 2
	f.Add([]byte{6, 4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 7, 1, 7, 0, 1, 0, 1, 1}) // an 8-cycle of 2s, λ = 4

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, bound := 2+int(data[0])%11, uint64(data[1])
		g := graph.New(n)
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			g.Edges = append(g.Edges, graph.Edge{U: int32(int(data[0]) % n), V: int32(int(data[1]) % n), W: 1 + uint64(data[2]%8)})
		}
		before := slices.Clone(g.Edges)
		ok, _ := Certify(g, bound)
		if !slices.Equal(g.Edges, before) {
			t.Fatal("Certify modified its input")
		}
		if !ok {
			return
		}
		if lambda := StoerWagner(g).Value; lambda < bound {
			t.Fatalf("certified every cut ≥ %d, but the minimum cut is %d (edges %v)", bound, lambda, g.Edges)
		}
	})
}

// TestCertifySaturates: attachments and degrees cap at the bound, so
// weights whose sums overflow uint64 still certify, and a bound above
// every cut is still refused.
func TestCertifySaturates(t *testing.T) {
	g := graph.New(3)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}} {
		g.AddEdge(e[0], e[1], math.MaxUint64/2+1)
		g.AddEdge(e[0], e[1], math.MaxUint64/2+1)
	}
	if ok, _ := Certify(g, math.MaxUint64); !ok {
		t.Error("a triangle of overflowing double edges was not certified at MaxUint64")
	}
	h := graph.New(2)
	h.AddEdge(0, 1, math.MaxUint64-1)
	if ok, _ := Certify(h, math.MaxUint64); ok {
		t.Error("one edge of weight MaxUint64-1 was certified at MaxUint64")
	}
}

// TestCertifyAllocsNothing: a warm certifier runs a whole certificate on
// the benchmark's graph without allocating.
func TestCertifyAllocsNothing(t *testing.T) {
	g := gen.WattsStrogatz(256, 12, 0.3, 19, gen.Config{})
	bound, _ := minDegreeCut(g)
	s := new(certifier)
	if ok, _, _ := s.run(g.N, g.Edges, bound); !ok {
		t.Fatal("ws256 did not certify")
	}
	if allocs := testing.AllocsPerRun(20, func() { s.run(g.N, g.Edges, bound) }); allocs != 0 {
		t.Errorf("%v allocations per warm certificate, want 0", allocs)
	}
}

// TestFailedCertificateChangesNothing: on planted-cut inputs, where the
// minimum cut is lighter than every singleton, Parallel's certificate
// fails and the run is the trial body's — value, side, trial count and
// every superstep and word — at every p.
func TestFailedCertificateChangesNothing(t *testing.T) {
	for _, g := range []*graph.Graph{gen.PlantedCut(64, 8, 2, 3), gen.Dumbbell(24, 2, 3)} {
		if _, ok := certifiedCut(g); ok {
			t.Fatal("a planted cut below the min degree was certified")
		}
		for _, p := range []int{1, 2, 4} {
			opts := Options{MaxTrials: 6}
			want, wst := trialsCutStats(t, g, p, 5, opts)
			got, gst := parallelCutStats(t, g, p, 5, opts)
			if got.Value != want.Value || got.Trials != want.Trials || !slices.Equal(got.Side, want.Side) ||
				gst.Supersteps != wst.Supersteps || gst.CommVolume != wst.CommVolume {
				t.Fatalf("n=%d p=%d: Parallel (%d, %d trials, ss %d, vol %d) differs from the trial body (%d, %d, %d, %d)",
					g.N, p, got.Value, got.Trials, gst.Supersteps, gst.CommVolume, want.Value, want.Trials, wst.Supersteps, wst.CommVolume)
			}
		}
	}
}
