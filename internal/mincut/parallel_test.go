package mincut

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func parallelCut(t testing.TB, g *graph.Graph, p int, seed uint64, opts Options) *CutResult {
	t.Helper()
	res, _ := parallelCutStats(t, g, p, seed, opts)
	return res
}

// parallelCutStats is parallelCut plus the run's BSP ledger. Each rank
// reads its block of g's edges in place, so the ledger is the kernel's
// alone.
func parallelCutStats(t testing.TB, g *graph.Graph, p int, seed uint64, opts Options) (*CutResult, *bsp.Stats) {
	t.Helper()
	return runCut(t, Parallel, g, p, seed, opts)
}

// trialsCutStats is parallelCutStats through the trial body alone, the
// path Parallel takes whenever its certificate fails.
func trialsCutStats(t testing.TB, g *graph.Graph, p int, seed uint64, opts Options) (*CutResult, *bsp.Stats) {
	t.Helper()
	return runCut(t, ParallelTrials, g, p, seed, opts)
}

func runCut(t testing.TB, entry func(*bsp.Comm, int, []graph.Edge, *rng.Stream, Options) *CutResult,
	g *graph.Graph, p int, seed uint64, opts Options) (*CutResult, *bsp.Stats) {
	t.Helper()
	var res *CutResult
	stats, err := bsp.Run(p, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(g.Edges), p, c.Rank())
		st := rng.New(seed, uint32(c.Rank()), 0)
		r := entry(c, g.N, g.Edges[lo:hi], st, opts)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// certifiedCut is what Parallel must return when its certificate holds:
// the min-degree cut, no trials.
func certifiedCut(g *graph.Graph) (*CutResult, bool) {
	v, side := minDegreeCut(g)
	ok, _ := Certify(g, v)
	return &CutResult{Value: v, Side: side}, ok
}

func TestParallelKnownCuts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"cycle", gen.Cycle(48, 2), 4},
		{"twocliques", gen.TwoCliques(12, 2, 4, 1), 2},
		{"dumbbell", gen.Dumbbell(16, 4, 1), 1},
		{"grid", gen.Grid(6, 8, 1), 2},
		{"star", gen.Star(20, 3), 3},
	}
	for _, c := range cases {
		for _, p := range []int{1, 2, 4} {
			got := parallelCut(t, c.g, p, 7, Options{SuccessProb: 0.95})
			if got.Value != c.want {
				t.Errorf("%s p=%d: MC = %d, want %d", c.name, p, got.Value, c.want)
			}
			if !got.Check(c.g) {
				t.Errorf("%s p=%d: inconsistent partition", c.name, p)
			}
		}
	}
}

func TestParallelMatchesStoerWagner(t *testing.T) {
	for seed := uint64(40); seed < 45; seed++ {
		g := gen.ErdosRenyiM(48, 320, seed, gen.Config{MaxWeight: 4})
		if !g.IsConnected() {
			continue
		}
		want := StoerWagner(g).Value
		got := parallelCut(t, g, 4, seed, Options{SuccessProb: 0.95})
		if got.Value != want {
			t.Errorf("seed %d: parallel MC = %d, SW = %d", seed, got.Value, want)
		}
	}
}

// TestParallelDisconnected: a disconnected input's cut is 0 with vertex
// 0's component as the side. Cold, the run finds that after its one
// superstep, the edge gather; warm, the plan's connectivity bit answers
// with no superstep at all.
func TestParallelDisconnected(t *testing.T) {
	g := graph.New(12)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.AddEdge(3, 4, 5)
	want := fmt.Sprint(g.ComponentOf(0))
	for _, p := range []int{1, 2, 4} {
		for _, pl := range []*graph.Plan{nil, g.Snapshot().PlanFacts()} {
			got, st := parallelCutStats(t, g, p, 1, Options{Plan: pl})
			wantSS := 1
			if pl != nil {
				wantSS = 0
			}
			if got.Value != 0 || fmt.Sprint(got.Side) != want || st.Supersteps != wantSS {
				t.Errorf("p=%d warm=%v: value %d, %d supersteps (want 0, %d), side %v, want %s",
					p, pl != nil, got.Value, st.Supersteps, wantSS, got.Side, want)
			}
		}
	}
}

// TestParallelGroupMode runs p > trials, where the paper's §4.2 would form
// processor groups: here each of the two trials runs whole on one rank and
// the other four ranks claim nothing, so the answer is the one-rank run's.
func TestParallelGroupMode(t *testing.T) {
	g := gen.TwoCliques(10, 2, 6, 1)
	opts := Options{SuccessProb: 0.9, MaxTrials: 2}
	got := parallelCut(t, g, 6, 3, opts)
	if !got.Check(g) {
		t.Fatal("inconsistent partition at p > trials")
	}
	if got.Value != 2 {
		t.Errorf("p > trials: MC = %d, want 2", got.Value)
	}
	if got.Trials != 2 {
		t.Errorf("trials = %d, want 2", got.Trials)
	}
	if ref := parallelCut(t, g, 1, 3, opts); fmt.Sprint(got.Side) != fmt.Sprint(ref.Side) {
		t.Error("p=6 side differs from p=1's")
	}
}

// TestParallelGroupModeSingleGroup runs one trial on four ranks: rank 0
// runs it and ranks 1–3 idle until the final broadcast. The cycle's
// min-degree cut is minimum, so Parallel itself proves it and runs none.
func TestParallelGroupModeSingleGroup(t *testing.T) {
	g := gen.Cycle(40, 3)
	opts := Options{SuccessProb: 0.9, MaxTrials: 1}
	got, _ := trialsCutStats(t, g, 4, 11, opts)
	if !got.Check(g) {
		t.Fatal("inconsistent partition")
	}
	if got.Value != 6 {
		t.Errorf("single trial on cycle at p=4: %d, want 6", got.Value)
	}
	if got.Trials != 1 {
		t.Errorf("trials = %d, want 1", got.Trials)
	}
	if cert := parallelCut(t, g, 4, 11, opts); cert.Value != 6 || cert.Trials != 0 || !cert.Check(g) {
		t.Errorf("certified cycle at p=4: value %d, %d trials, want 6 and 0", cert.Value, cert.Trials)
	}
}

// TestParallelIndependentOfP pins the runtime's promise that p never
// changes the answer: every trial runs whole on one rank from a stream
// keyed by its index, so value, side and trial count equal the one-rank
// run at every p — including p above the trial count, where the extra
// ranks claim nothing. Supersteps are pinned too: the edge gather, the
// dynamic scheduler's ⌈min(4p, t)/p⌉−1 claim rounds (none at p = 1 or
// p ≥ t), and the one superstep that sends every rank's best to the
// root. Nothing else communicates. The trial body runs on its own;
// Parallel then either certifies (the min-degree cut, no trials, the
// gather alone) or returns exactly the trial body's run.
func TestParallelIndependentOfP(t *testing.T) {
	const trials = 4
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er96", gen.ErdosRenyiM(96, 480, 11, gen.Config{MaxWeight: 4})},
		{"ws128", gen.WattsStrogatz(128, 6, 0.3, 5, gen.Config{})},
		{"cycle40", gen.Cycle(40, 3)},
		{"dumbbell", gen.Dumbbell(24, 2, 3)},
	}
	for _, in := range inputs {
		cert, certified := certifiedCut(in.g)
		for seed := uint64(1); seed <= 8; seed++ {
			opts := Options{MaxTrials: trials, Schedule: SchedStatic}
			ref, _ := trialsCutStats(t, in.g, 1, seed, opts)
			for _, sched := range []Schedule{SchedStatic, SchedDynamic} {
				opts.Schedule = sched
				for _, p := range []int{1, 2, 3, 4, 5, 8, 16} {
					got, st := trialsCutStats(t, in.g, p, seed, opts)
					where := fmt.Sprintf("%s seed=%d sched=%d p=%d", in.name, seed, sched, p)
					if got.Value != ref.Value || got.Trials != ref.Trials || fmt.Sprint(got.Side) != fmt.Sprint(ref.Side) {
						t.Fatalf("%s: (value %d, trials %d) differs from p=1's (%d, %d) or its side does",
							where, got.Value, got.Trials, ref.Value, ref.Trials)
					}
					want := 2 // gather, argmin at the root
					if p > 1 && sched == SchedDynamic {
						want += (min(4*p, trials)+p-1)/p - 1
					}
					if st.Supersteps != want {
						t.Fatalf("%s: %d supersteps, want %d", where, st.Supersteps, want)
					}
					full, fst := parallelCutStats(t, in.g, p, seed, opts)
					if certified {
						got, want = cert, 1 // the gather alone
					}
					if full.Value != got.Value || full.Trials != got.Trials || fmt.Sprint(full.Side) != fmt.Sprint(got.Side) || fst.Supersteps != want {
						t.Fatalf("%s: Parallel (value %d, trials %d, %d supersteps) differs from (%d, %d, %d), certified=%v",
							where, full.Value, full.Trials, fst.Supersteps, got.Value, got.Trials, want, certified)
					}
				}
			}
		}
	}
}

func TestParallelDeterministicSeed(t *testing.T) {
	g := gen.ErdosRenyiM(40, 200, 50, gen.Config{MaxWeight: 3})
	a := parallelCut(t, g, 4, 13, Options{})
	b := parallelCut(t, g, 4, 13, Options{})
	if a.Value != b.Value {
		t.Errorf("same seed, different values: %d vs %d", a.Value, b.Value)
	}
	for i := range a.Side {
		if a.Side[i] != b.Side[i] {
			t.Fatalf("sides differ at %d", i)
		}
	}
}

func TestParallelAgreesAcrossP(t *testing.T) {
	g := gen.WattsStrogatz(64, 6, 0.3, 5, gen.Config{})
	want := StoerWagner(g).Value
	for _, p := range []int{1, 2, 3, 6} {
		got := parallelCut(t, g, p, 21, Options{SuccessProb: 0.95})
		if got.Value != want {
			t.Errorf("p=%d: %d, want %d", p, got.Value, want)
		}
	}
}

func TestPackUnpackSide(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		side := make([]bool, n)
		for i := range side {
			side[i] = i%3 == 0
		}
		got := unpackSide(packSide(side))
		if len(got) != n {
			t.Fatalf("n=%d: length %d", n, len(got))
		}
		for i := range side {
			if got[i] != side[i] {
				t.Fatalf("n=%d: bit %d flipped", n, i)
			}
		}
	}
}

// TestWarmCertificateOncePerSnapshot: the ranks of a warm run race into
// the snapshot's CutFact and one of them certifies, the work on its
// ledger alone; every later warm run on the snapshot, at any p, reads
// the outcome without that work. Value, side and trials are the cold
// run's throughout, on a certifying input and on a planted cut whose
// certificate fails.
func TestWarmCertificateOncePerSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		certified bool
	}{
		{"ws256", gen.WattsStrogatz(256, 12, 0.3, 1, gen.Config{}), true},
		{"planted64", gen.PlantedCut(64, 8, 2, 3), false},
	} {
		cold, coldSt := parallelCutStats(t, tc.g, 1, 1, Options{})
		if (cold.Trials == 0) != tc.certified {
			t.Fatalf("%s: cold run drew %d trials, want certified = %v", tc.name, cold.Trials, tc.certified)
		}
		_, bound := tc.g.MinDegreeVertex()
		_, _, work := certify(tc.g.N, tc.g.Edges, bound)
		pl := tc.g.Snapshot().PlanFacts()
		for i, p := range []int{16, 16, 2, 1} {
			got, st := parallelCutStats(t, tc.g, p, 1, Options{Plan: pl})
			if got.Value != cold.Value || fmt.Sprint(got.Side) != fmt.Sprint(cold.Side) || got.Trials != cold.Trials {
				t.Errorf("%s run %d at p=%d: cut %d over %d trials, cold %d over %d, or the sides differ",
					tc.name, i, p, got.Value, got.Trials, cold.Value, cold.Trials)
			}
			var total uint64
			for _, w := range st.Workers {
				total += w.Ops
			}
			switch {
			case tc.certified && i == 0:
				if total != work || st.MaxOps != work {
					t.Errorf("%s first warm run: %d ops over the ranks, max %d, want one rank's certificate, %d", tc.name, total, st.MaxOps, work)
				}
			case tc.certified:
				if total != 0 {
					t.Errorf("%s warm run %d at p=%d: %d ops, want 0", tc.name, i, p, total)
				}
			case p == 1:
				if st.MaxOps != coldSt.MaxOps-work {
					t.Errorf("%s warm run at p=1: %d ops, want the cold run's %d less the certificate's %d", tc.name, st.MaxOps, coldSt.MaxOps, work)
				}
			}
		}
	}
}
