package mincut

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// boundedInputs are the graphs the bounded-trial tests run on: the
// benchmark's Watts–Strogatz shape, a weighted Erdős–Rényi graph and a
// dumbbell whose minimum cuts beat every singleton, two cycles (Lemma
// 2.1 is tight there and every pair of edges is a tied minimum), and two
// inputs whose eager target exceeds BaseCaseSize, so the bound travels
// through branching recursion before it reaches a leaf.
func boundedInputs(t *testing.T) []admissionInput {
	ins := []admissionInput{
		{name: "ws256", g: gen.WattsStrogatz(256, 12, 0.3, 19, gen.Config{})},
		{name: "weighted-er", g: sparseWeightedER(t, 40, 70)},
		{name: "cycle", g: gen.Cycle(82, 1), want: 2},
		{name: "cycle-branching", g: gen.Cycle(1700, 3), want: 6},
		{name: "two-cliques", g: gen.TwoCliques(42, 5, 1, 1)},
		{name: "dumbbell", g: gen.Dumbbell(24, 2, 3)},
	}
	for i := range ins {
		if ins[i].want == 0 { // a cycle's λ is known; Stoer–Wagner is cubic
			ins[i].want = StoerWagner(ins[i].g).Value
		}
	}
	return ins
}

// TestBoundedTrialContract pins what a bound may change: over thousands
// of (graph, trial, bound) triples, a bounded trial returns the unbounded
// trial's (value, side) whenever that value is below the bound, a value
// at or above the bound otherwise, and the same work count always.
func TestBoundedTrialContract(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 12
	}
	a := getKSArena()
	defer putKSArena(a)
	triples, skipped := 0, 0
	for _, in := range boundedInputs(t) {
		lambda := in.want
		bounds := []uint64{0, lambda - 1, lambda, lambda + 1, math.MaxUint64}
		st, first := rng.New(59, 0, 0), edgeSampler(in.g.Edges)
		for i := 0; i < trials; i++ {
			val, side, work := sequentialTrial(a, in.g, first, st.At(uint32(i), trialLane), math.MaxUint64)
			if side == nil || in.g.CutValue(side) != val {
				t.Fatalf("%s trial %d: unbounded trial returned value %d with side %v", in.name, i, val, side)
			}
			for _, b := range bounds {
				bv, bside, bwork := sequentialTrial(a, in.g, first, st.At(uint32(i), trialLane), b)
				triples++
				if bwork != work {
					t.Fatalf("%s trial %d bound %d: work %d, unbounded %d", in.name, i, b, bwork, work)
				}
				if val < b {
					if bv != val || !slices.Equal(bside, side) {
						t.Fatalf("%s trial %d bound %d: (%d, side) differs from unbounded %d", in.name, i, b, bv, val)
					}
					continue
				}
				if bv < b {
					t.Fatalf("%s trial %d bound %d: value %d below the bound, unbounded %d", in.name, i, b, bv, val)
				}
				if bside == nil {
					skipped++
				}
			}
		}
	}
	t.Logf("%d triples, %d leaves certified without solving", triples, skipped)
	if skipped == 0 {
		t.Error("no bounded trial ever skipped its exact leaf: the contract was only tested vacuously")
	}
}

// TestParallelMatchesUnboundedArgmin checks the bound the trial body
// derives from the rank-local best against the argmin it must not
// change: the lowest-index best over unbounded trials, then the
// min-degree fold, for every machine size, both schedules and 40 seeds.
// Parallel must return that argmin too, unless its certificate proves the
// min-degree cut minimum; then it returns that cut with no trials.
func TestParallelMatchesUnboundedArgmin(t *testing.T) {
	seeds := uint64(40)
	if testing.Short() {
		seeds = 6
	}
	a := getKSArena()
	defer putKSArena(a)
	for _, in := range boundedInputs(t)[:2] { // ws256, weighted-er
		g := in.g
		trials, first := Trials(g.N, g.M(), 0.9), edgeSampler(g.Edges)
		for seed := uint64(1); seed <= seeds; seed++ {
			want := &CutResult{Value: math.MaxUint64, Trials: trials}
			st := rng.New(seed, 0, 0)
			for i := 0; i < trials; i++ {
				if val, side, _ := sequentialTrial(a, g, first, st.At(uint32(i), trialLane), math.MaxUint64); val < want.Value {
					want.Value, want.Side = val, side
				}
			}
			if dv, ds := minDegreeCut(g); dv < want.Value {
				want.Value, want.Side = dv, ds
			}
			full := want
			if cert, ok := certifiedCut(g); ok {
				full = cert
			}
			for p := 1; p <= 4; p++ {
				for _, sched := range []Schedule{SchedDynamic, SchedStatic} {
					got, _ := trialsCutStats(t, g, p, seed, Options{Schedule: sched})
					if got.Value != want.Value || got.Trials != want.Trials || !slices.Equal(got.Side, want.Side) {
						t.Fatalf("%s seed %d p=%d schedule %d: (%d, %d trials) differs from the unbounded argmin (%d, %d trials) or its side",
							in.name, seed, p, sched, got.Value, got.Trials, want.Value, want.Trials)
					}
					got = parallelCut(t, g, p, seed, Options{Schedule: sched})
					if got.Value != full.Value || got.Trials != full.Trials || !slices.Equal(got.Side, full.Side) {
						t.Fatalf("%s seed %d p=%d schedule %d: Parallel (%d, %d trials) differs from (%d, %d trials) or its side",
							in.name, seed, p, sched, got.Value, got.Trials, full.Value, full.Trials)
					}
				}
			}
		}
	}
}

// TestCertificateSkipsExactCut pins how much of the benchmark's work the
// certificate removes: on its Watts–Strogatz shape at p = 1, seed 1, the
// trials are replayed with Parallel's bounds, and a trial reaches
// exactCut only when cutsAtLeast fails on its 41-vertex leaf.
func TestCertificateSkipsExactCut(t *testing.T) {
	const maxSolved = 4
	g := gen.WattsStrogatz(256, 12, 0.3, 19, gen.Config{})
	trials := Trials(g.N, g.M(), 0.9)
	if eagerTarget(g.M()) > BaseCaseSize || trials != 92 {
		t.Fatalf("shape drifted: eager target %d, %d trials", eagerTarget(g.M()), trials)
	}
	a := getKSArena()
	defer putKSArena(a)
	st, first := rng.New(1, 0, 0), edgeSampler(g.Edges)
	best, solved := uint64(math.MaxUint64), 0
	for i := 0; i < trials; i++ {
		mat, mapping, _ := eagerSequential(a, g, first, eagerTarget(g.M()), st.At(uint32(i), trialLane))
		if best == math.MaxUint64 || !a.cutsAtLeast(mat, best) {
			solved++
			val, side := a.exactCut(mat)
			best = min(best, val)
			a.putBools(side)
		}
		a.putWords(mat.W)
		a.putInts(mapping)
	}
	t.Logf("%d of %d trials reached exactCut (best %d)", solved, trials, best)
	if best != StoerWagner(g).Value {
		t.Errorf("replayed trials found %d, Stoer–Wagner %d", best, StoerWagner(g).Value)
	}
	if solved > maxSolved {
		t.Errorf("%d of %d trials reached exactCut, want at most %d", solved, trials, maxSolved)
	}
}

// FuzzCutsAtLeast holds the certificate to its one promise: when it says
// every cut weighs at least the bound, Stoer–Wagner must agree. The first
// byte sizes a 2–12 vertex matrix, the second is the bound, and every
// further byte (mod 8) fills the next upper-triangle weight. The seeds
// below run on every plain `go test`.
func FuzzCutsAtLeast(f *testing.F) {
	f.Add([]byte{2, 3, 3})                                     // one edge: certified at its weight
	f.Add([]byte{2, 4, 3})                                     // …and refused one above it
	f.Add([]byte{3, 0})                                        // no edges, bound 0: trivially true
	f.Add([]byte{3, 1})                                        // no edges: disconnected, refused
	f.Add([]byte{4, 3, 1, 1, 1, 1, 1, 1})                      // K4: λ = 3
	f.Add([]byte{4, 4, 1, 1, 1, 1, 1, 1})                      // K4 above λ
	f.Add([]byte{6, 2, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1}) // a 6-cycle
	f.Add([]byte{10, 5, 7, 7, 7, 7, 1, 0, 0, 0, 0, 7, 7, 7, 0, 0, 0, 0, 0, 7, 7, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{12, 9, 3, 5, 2, 7, 1, 4, 6, 0, 2, 3, 5, 7, 1, 1, 4, 2, 6, 3, 5, 0, 7, 2, 4, 6, 1, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, bound := 2+int(data[0])%11, uint64(data[1])
		data = data[2:]
		m := graph.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n && len(data) > 0; j++ {
				m.Set(int32(i), int32(j), uint64(data[0]%8))
				data = data[1:]
			}
		}
		before := slices.Clone(m.W)
		a := getKSArena()
		defer putKSArena(a)
		ok := a.cutsAtLeast(m, bound)
		if !slices.Equal(m.W, before) {
			t.Fatal("cutsAtLeast modified its input")
		}
		if !ok {
			return
		}
		if lambda := StoerWagner(m.ToGraph()).Value; lambda < bound {
			t.Fatalf("certified every cut ≥ %d, but the minimum cut is %d (matrix %v)", bound, lambda, m.W)
		}
	})
}
