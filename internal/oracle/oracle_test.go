package oracle

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/planner"
	"repro/internal/rng"
)

const falseAlarm = 1e-3

func TestBinomialCDF(t *testing.T) {
	for _, c := range []struct {
		k, n int
		p    float64
		want float64
	}{
		{0, 1, 0.3, 0.7},
		{1, 2, 0.5, 0.75},
		{2, 2, 0.5, 1},
		{3, 10, 0.5, 176.0 / 1024},
		{99, 100, 0.9, 1 - math.Pow(0.9, 100)},
	} {
		if got := BinomialCDF(c.k, c.n, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BinomialCDF(%d, %d, %v) = %v, want %v", c.k, c.n, c.p, got, c.want)
		}
	}
}

// TestChiSquareSF pins the closed form to the textbook 5 % and 0.1 %
// critical values at both parities of df.
func TestChiSquareSF(t *testing.T) {
	for _, c := range []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841459, 1, 0.05}, {5.991465, 2, 0.05}, {7.814728, 3, 0.05}, {9.487729, 4, 0.05},
		{10.827566, 1, 0.001}, {18.466827, 4, 0.001}, {20.515006, 5, 0.001},
	} {
		if got := chiSquareSF(c.x, c.df); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("chiSquareSF(%v, %d) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
}

// TestSameDistribution: two samples of one geometric law pass, a sample
// shifted by one bin fails, and a histogram that pools to one bin scores 1.
func TestSameDistribution(t *testing.T) {
	st := rng.New(1, 0, 0)
	geo := func(shift, n int) []int {
		h := make([]int, 12)
		for i := 0; i < n; i++ {
			j := shift + 1
			for j < len(h)-1 && st.Intn(2) == 0 {
				j++
			}
			h[j]++
		}
		return h
	}
	if pv := SameDistribution(geo(0, 600), geo(0, 900)); pv < falseAlarm {
		t.Errorf("one law: p-value %.3g", pv)
	}
	if pv := SameDistribution(geo(0, 600), geo(1, 900)); pv >= falseAlarm {
		t.Errorf("shifted law: p-value %.3g, want < %v", pv, falseAlarm)
	}
	if pv := SameDistribution([]int{0, 40}, []int{0, 70}); pv != 1 {
		t.Errorf("one bin: p-value %v, want 1", pv)
	}
}

// oldKeep is the approximate cut's keep probability 1 − (1 − 2^−i)^w.
func oldKeep(i int, w uint64) float64 {
	return 1 - math.Pow(1-math.Exp2(-float64(i)), float64(w))
}

// oldStopLevel is the approximate cut as it drew before its coins went
// through rng.Bits: every coin spends a whole 64-bit word, kept when
// Uint64()>>11 < ⌈p·2^53⌉. The same per-rank streams (st.Derive(level),
// trial-major, edge-minor) and the same default trial and level counts;
// it returns the first level with a disconnected sample, 0 if none.
func oldStopLevel(g *graph.Graph, p int, seed uint64) int {
	trials := max(int(math.Ceil(math.Log2(float64(g.N)))), 4)
	maxIter := max(int(math.Ceil(math.Log2(float64(g.TotalWeight()))))+1, 1)
	uf := graph.NewUnionFind(g.N)
	for i := 1; i <= maxIter; i++ {
		streams := make([]*rng.Stream, p)
		for r := range streams {
			streams[r] = rng.New(seed, uint32(r), 0).Derive(uint32(i))
		}
		for t := 0; t < trials; t++ {
			uf.Reset(g.N)
			for r, ds := range streams {
				lo, hi := dist.BlockRange(len(g.Edges), p, r)
				for _, e := range g.Edges[lo:hi] {
					keep := uint64(math.Ceil(oldKeep(i, e.W) * (1 << 53)))
					if keep >= 1<<53 || keep > 0 && ds.Uint64()>>11 < keep {
						uf.Union(e.U, e.V)
					}
				}
			}
			if uf.Count() > 1 {
				return i
			}
		}
	}
	return 0
}

func swLambda(g *graph.Graph) uint64 { return mincut.StoerWagner(g).Value }

// TestApproxArm is the admission test of the approximate cut's draws. On
// every input × p ∈ {1, 2, 4} × variant, the share of estimates inside
// the 4·log₂ n bracket must not reject ApproxShare at the false-alarm
// rate. And the histogram of stop levels, pooled over p, must not be
// told apart from the old 64-bit comparator's by a two-sample χ² test at
// the same rate: the bit comparator changed which bits each coin reads,
// never the law of the sample. The reference runs on seeds disjoint from
// the kernel's, so the two samples are independent.
func TestApproxArm(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 150
	}
	ps := []int{1, 2, 4}
	ins := CutInputs(swLambda)
	rows, err := Approx(ins, ps, seeds)
	if err != nil {
		t.Fatal(err)
	}
	pooled := map[string][]int{}
	for _, r := range rows {
		if err := r.Check(falseAlarm); err != nil {
			t.Error(err)
		}
		if !r.Pipelined {
			h := pooled[r.Input]
			if len(r.Levels) > len(h) {
				h = append(h, make([]int, len(r.Levels)-len(h))...)
			}
			for j, c := range r.Levels {
				h[j] += c
			}
			pooled[r.Input] = h
		}
	}
	for _, in := range ins {
		var ref []int
		for _, p := range ps {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				ref = countAt(ref, oldStopLevel(in.G, p, seed+1<<32))
			}
		}
		pv := SameDistribution(pooled[in.Name], ref)
		t.Logf("%s (n=%d, λ=%d): stop levels %v, 64-bit reference %v, p-value %.3g",
			in.Name, in.G.N, in.Lambda, pooled[in.Name], ref, pv)
		if pv < falseAlarm {
			t.Errorf("%s: stop-level histogram %v differs from the 64-bit comparator's %v (p-value %.2g < %.0e)",
				in.Name, pooled[in.Name], ref, pv, falseAlarm)
		}
	}
}

// TestCCArm: the CC kernel labels every input exactly as BFS does, at
// every machine size and seed.
func TestCCArm(t *testing.T) {
	k := planner.For("cc")
	kernel := CCKernel{Name: k.Name, Labels: func(g *graph.Graph, p int, seed uint64) ([]int32, error) {
		out, _, err := k.Exec(context.Background(), planner.Shape{P: p}, g.N, g.Edges, planner.RunParams{Seed: seed}.Defaulted(), nil)
		if err != nil {
			return nil, err
		}
		return out.Labels, nil
	}}
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	rows, err := CC(kernel, CCInputs(), []int{1, 2, 4}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mismatch != "" {
			t.Errorf("%s on %s: labels differ from BFS (%s)", r.Kernel, r.Input, r.Mismatch)
		}
	}
}

// certInput draws graph i of the certificate sweep: a connected or
// disconnected Erdős–Rényi graph, unit or weighted, a Watts–Strogatz
// graph, or a planted cut below every singleton — all with n ≤ 64.
func certInput(i int) (family string, g *graph.Graph) {
	st := rng.New(uint64(i), 0, 0)
	seed := uint64(i) + 1
	switch i % 4 {
	case 0:
		n := 12 + st.Intn(53)
		return "er", gen.ErdosRenyiM(n, n*(3+st.Intn(8))/2, seed, gen.Config{})
	case 1:
		n := 12 + st.Intn(53)
		return "weighted-er", gen.ErdosRenyiM(n, n*(3+st.Intn(8))/2, seed, gen.Config{MaxWeight: 8})
	case 2:
		n := 12 + st.Intn(53)
		return "ws", gen.WattsStrogatz(n, 4+2*st.Intn(4), 0.3, seed, gen.Config{})
	default:
		half := 8 + st.Intn(25)
		return "planted", gen.PlantedCut(half, 4+2*st.Intn(2), 1+st.Intn(3), seed)
	}
}

// TestCertificateArm holds the exact cut's certificate to the oracle:
// over a seeded sweep of small graphs, every run that certifies (no
// trials) returns a value equal to Stoer–Wagner's and a side whose cut
// has that value. It logs, per family, how often the certificate proves
// the min-degree cut when it is in fact minimum.
func TestCertificateArm(t *testing.T) {
	graphs := 1200
	if testing.Short() {
		graphs = 200
	}
	mc := planner.For("mincut")
	type tally struct{ graphs, tight, certified int }
	rates := map[string]*tally{}
	for i := 0; i < graphs; i++ {
		family, g := certInput(i)
		r := rates[family]
		if r == nil {
			r = &tally{}
			rates[family] = r
		}
		r.graphs++
		out, _, err := mc.Exec(context.Background(), planner.Shape{P: 1 + i%2}, g.N, g.Edges,
			planner.RunParams{Seed: uint64(i) + 1, MaxTrials: 1}.Defaulted(), nil)
		if err != nil {
			t.Fatal(err)
		}
		lambda := swLambda(g)
		if _, minDeg := g.MinDegreeVertex(); lambda == minDeg && lambda > 0 {
			r.tight++
		}
		if out.Trials != 0 || lambda == 0 {
			continue // the trials ran, or the input is disconnected
		}
		r.certified++
		if out.Value != lambda || g.CutValue(out.Side) != out.Value {
			t.Fatalf("graph %d (%s, n=%d): certified value %d, Stoer–Wagner %d, CutValue(side) %d",
				i, family, g.N, out.Value, lambda, g.CutValue(out.Side))
		}
	}
	families := make([]string, 0, len(rates))
	for family := range rates {
		families = append(families, family)
	}
	slices.Sort(families)
	total := 0
	for _, family := range families {
		r := rates[family]
		t.Logf("%s: %d graphs, λ = λ̂ > 0 on %d, certified %d", family, r.graphs, r.tight, r.certified)
		total += r.certified
	}
	if total == 0 {
		t.Error("no graph certified: the arm checked nothing")
	}
}
