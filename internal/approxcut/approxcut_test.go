package approxcut

import (
	"math"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func estimate(t testing.TB, g *graph.Graph, p int, seed uint64, opts Options) *Result {
	t.Helper()
	var res *Result
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		st := rng.New(seed, uint32(c.Rank()), 0)
		r := Parallel(c, n, local, st, opts)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkApprox asserts the estimate is within [truth/slack, truth*slack].
func checkApprox(t *testing.T, name string, got *Result, truth uint64, slack float64) {
	t.Helper()
	lo := float64(truth) / slack
	hi := float64(truth) * slack
	if float64(got.Value) < lo || float64(got.Value) > hi {
		t.Errorf("%s: estimate %d outside [%.1f, %.1f] (truth %d)", name, got.Value, lo, hi, truth)
	}
}

func TestCycleEstimate(t *testing.T) {
	g := gen.Cycle(64, 1) // min cut 2
	got := estimate(t, g, 4, 3, Options{})
	checkApprox(t, "cycle", got, 2, 8)
	if !got.Disconnected {
		t.Error("scan exhausted without disconnection on a sparse cycle")
	}
}

func TestCompleteGraphEstimate(t *testing.T) {
	g := gen.Complete(32, 1) // min cut 31
	got := estimate(t, g, 4, 5, Options{})
	slack := 4 * math.Log2(32)
	checkApprox(t, "K32", got, 31, slack)
}

func TestDumbbellEstimate(t *testing.T) {
	g := gen.Dumbbell(20, 4, 1) // min cut 1 (the bridge)
	got := estimate(t, g, 3, 7, Options{})
	checkApprox(t, "dumbbell", got, 1, 8)
}

func TestTwoCliquesEstimate(t *testing.T) {
	g := gen.TwoCliques(12, 2, 3, 1) // min cut 2
	got := estimate(t, g, 4, 9, Options{})
	checkApprox(t, "twocliques", got, 2, 16)
}

// TestDisconnectedInputGivesZero: a disconnected input is answered 0,
// exactly, and that is not a disconnection the scan observed — cold (the
// base forests of the first round find it), warm (the plan knows it) and
// in both variants.
func TestDisconnectedInputGivesZero(t *testing.T) {
	g := graph.New(20)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5) // two tiny components + isolated vertices
	plan := g.Snapshot().PlanFacts()
	for _, pipelined := range []bool{false, true} {
		for _, pl := range []*graph.Plan{nil, plan} {
			got := estimate(t, g, 3, 1, Options{Pipelined: pipelined, Plan: pl})
			if *got != (Result{}) {
				t.Errorf("disconnected input (pipelined=%v, warm=%v): %+v, want value 0 and no observed disconnection",
					pipelined, pl != nil, *got)
			}
		}
	}
}

// TestEmptyAndTrivialInputs: a single vertex and an edgeless graph are
// answered 0 with nothing observed, cold and warm.
func TestEmptyAndTrivialInputs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.New(1), graph.New(5)} {
		for _, pl := range []*graph.Plan{nil, g.Snapshot().PlanFacts()} {
			if got := estimate(t, g, 2, 1, Options{Plan: pl}); *got != (Result{}) {
				t.Errorf("n=%d, no edges, warm=%v: %+v, want the zero result", g.N, pl != nil, *got)
			}
		}
	}
}

func TestPipelinedAgreesWithEarlyStopping(t *testing.T) {
	g := gen.Cycle(48, 1)
	a := estimate(t, g, 4, 11, Options{})
	b := estimate(t, g, 4, 11, Options{Pipelined: true})
	// Both are randomized; they must agree within a factor of 4 on this
	// easy instance (both find disconnection at the first or second level).
	ratio := float64(a.Value) / float64(b.Value)
	if ratio > 4 || ratio < 0.25 {
		t.Errorf("variants disagree: early %d vs pipelined %d", a.Value, b.Value)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	g := gen.WattsStrogatz(80, 4, 0.3, 2, gen.Config{})
	a := estimate(t, g, 3, 42, Options{})
	b := estimate(t, g, 3, 42, Options{})
	if a.Value != b.Value || a.Iterations != b.Iterations {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestWeightedGraphEstimate(t *testing.T) {
	// Cycle with weight 8 edges: min cut 16; keepProb must account for
	// weights, pushing disconnection to later iterations than weight 1.
	g := gen.Cycle(64, 8)
	got := estimate(t, g, 4, 13, Options{})
	checkApprox(t, "weighted-cycle", got, 16, 8)
}

func TestKeepProb(t *testing.T) {
	if p := keepProb(1, 1); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("keepProb(1,1) = %v", p)
	}
	if p := keepProb(3, 1); math.Abs(p-0.125) > 1e-12 {
		t.Errorf("keepProb(3,1) = %v", p)
	}
	// Monotone in w, bounded by 1.
	prev := 0.0
	for w := uint64(1); w <= 64; w *= 2 {
		p := keepProb(4, w)
		if p < prev || p > 1 {
			t.Fatalf("keepProb(4,%d) = %v not monotone/bounded", w, p)
		}
		prev = p
	}
}

func TestEarlyStoppingStopsEarly(t *testing.T) {
	// Sparse graph with tiny cut: early-stopping should examine very few
	// sparsity levels even though total weight allows many.
	g := gen.Dumbbell(30, 64, 1) // W large, cut 1
	got := estimate(t, g, 3, 21, Options{})
	if got.Iterations > 4 {
		t.Errorf("early stopping examined %d levels for a unit cut", got.Iterations)
	}
}

func TestPipelinedConstantSupersteps(t *testing.T) {
	// §3.3: the pipelined variant performs O(1) supersteps — a single
	// scan round over all trials of all levels — independent of the
	// weight range, while the early-stopping variant's superstep count
	// grows with log µ (level 1's probe round, then a round per sparsity
	// level examined).
	light := gen.Cycle(48, 1)   // min cut 2: early stopping exits level 1
	heavy := gen.Cycle(48, 256) // min cut 512: early stopping walks ~9 levels
	steps := func(g *graph.Graph, opts Options) int {
		st, err := bsp.Run(3, func(c *bsp.Comm) {
			var in *graph.Graph
			if c.Rank() == 0 {
				in = g
			}
			n, local := dist.ScatterGraph(c, 0, in)
			Parallel(c, n, local, rng.New(7, uint32(c.Rank()), 0), opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Supersteps
	}
	pipeLight := steps(light, Options{Pipelined: true})
	pipeHeavy := steps(heavy, Options{Pipelined: true})
	earlyLight := steps(light, Options{})
	earlyHeavy := steps(heavy, Options{})
	if diff := pipeHeavy - pipeLight; diff > 3 || diff < -3 {
		t.Errorf("pipelined supersteps depend on weights: %d vs %d", pipeLight, pipeHeavy)
	}
	if earlyHeavy <= earlyLight {
		t.Errorf("early-stopping supersteps did not grow with log(cut): %d vs %d", earlyLight, earlyHeavy)
	}
	if pipeHeavy >= earlyHeavy {
		t.Errorf("pipelined (%d) not fewer supersteps than early stopping (%d) on heavy weights", pipeHeavy, earlyHeavy)
	}
}

// TestWarmSkipsTheColdPrelude: a warm run takes the total weight and
// connectivity from the plan and records the plan's ApproxCost as
// avoided. What it skips is ColdPrelude's communication: the weight
// AllReduce's superstep and, riding the first scan round, the base
// forests. So the cold run takes exactly the prelude's supersteps and
// words more than the warm one, and both answer the same.
func TestWarmSkipsTheColdPrelude(t *testing.T) {
	g := gen.WattsStrogatz(200, 6, 0.3, 3, gen.Config{MaxWeight: 4})
	pl := g.Snapshot().PlanFacts()
	pl.ApproxCost = graph.CollectiveCost{Collectives: 2, Words: 7}
	pl.CCCost = graph.CollectiveCost{Collectives: 5, Words: 999}
	const p = 4
	blocks := func(body func(c *bsp.Comm, local []graph.Edge)) *bsp.Stats {
		st, err := bsp.Run(p, func(c *bsp.Comm) {
			lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
			body(c, g.Edges[lo:hi])
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	prelude := blocks(func(c *bsp.Comm, local []graph.Edge) { ColdPrelude(c, g.N, local) })
	for _, pipelined := range []bool{false, true} {
		var res [2]Result
		var st [2]*bsp.Stats
		for i, plan := range []*graph.Plan{nil, pl} {
			st[i] = blocks(func(c *bsp.Comm, local []graph.Edge) {
				r := Parallel(c, g.N, local, rng.New(9, uint32(c.Rank()), 0), Options{Pipelined: pipelined, Plan: plan})
				if c.Rank() == 0 {
					res[i] = *r
				}
			})
		}
		cold, warm := st[0], st[1]
		if res[0] != res[1] {
			t.Errorf("pipelined=%v: cold %+v, warm %+v", pipelined, res[0], res[1])
		}
		if warm.AvoidedCollectives != 2 || warm.AvoidedCommVolume != 7 {
			t.Errorf("pipelined=%v: warm avoided %d collectives, %d words; want the plan's ApproxCost 2, 7",
				pipelined, warm.AvoidedCollectives, warm.AvoidedCommVolume)
		}
		if cold.AvoidedCollectives != 0 || cold.Supersteps != warm.Supersteps+prelude.Supersteps || prelude.Supersteps != 1 {
			t.Errorf("pipelined=%v: cold %d supersteps (%d avoided), warm %d, prelude %d (want 1)",
				pipelined, cold.Supersteps, cold.AvoidedCollectives, warm.Supersteps, prelude.Supersteps)
		}
		if cold.CommVolume != warm.CommVolume+prelude.CommVolume {
			t.Errorf("pipelined=%v: cold moved %d words, warm %d + prelude %d",
				pipelined, cold.CommVolume, warm.CommVolume, prelude.CommVolume)
		}
	}
}
