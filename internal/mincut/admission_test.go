package mincut

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// The admission test of any change to the trial's random draws: Karger–
// Stein is Monte Carlo with a stated success probability, so a change
// that keeps every golden value can still quietly lose cuts. These
// tests measure the success rate against the Stoer–Wagner oracle over
// fixed seeds on inputs whose minimum cut is not a singleton (the
// min-degree cut folded into every result would otherwise hide a trial
// that never finds anything).

// admissionInput is one small graph with a non-singleton minimum cut.
type admissionInput struct {
	name string
	g    *graph.Graph
	want uint64 // Stoer–Wagner's value
}

// sparseWeightedER returns the first connected weighted Erdős–Rényi
// graph, searching graph seeds upward, whose minimum cut beats every
// singleton.
func sparseWeightedER(t *testing.T, n, m int) *graph.Graph {
	for seed := uint64(1); seed < 200; seed++ {
		g := gen.ErdosRenyiM(n, m, seed, gen.Config{MaxWeight: 8})
		if !g.IsConnected() {
			continue
		}
		if _, d := g.MinDegreeVertex(); StoerWagner(g).Value < d {
			return g
		}
	}
	t.Fatal("no weighted ER graph with a non-singleton minimum cut in 200 seeds")
	return nil
}

// admissionInputs covers both halves of the trial: the two larger graphs
// leave the Eager Step with more vertices than the base-case cut-off (so
// Recursive Contraction really branches — checked below), the two
// smaller ones are decided by the Eager Step's prefix and one exact
// solve.
func admissionInputs(t *testing.T) []admissionInput {
	ins := []admissionInput{
		{name: "two-cliques", g: gen.TwoCliques(42, 5, 1, 1)},
		{name: "planted-bisection", g: oracle.PlantedBisection(60, 4, 3)},
		{name: "dumbbell", g: gen.Dumbbell(24, 2, 3)},
		{name: "weighted-er", g: sparseWeightedER(t, 40, 70)},
	}
	for _, in := range ins[:2] {
		if tgt := eagerTarget(in.g.M()); tgt <= BaseCaseSize {
			t.Fatalf("%s: eager target %d does not reach the recursion (cut-off %d)", in.name, tgt, BaseCaseSize)
		}
	}
	for i := range ins {
		g := ins[i].g
		ins[i].want = StoerWagner(g).Value
		if _, d := g.MinDegreeVertex(); ins[i].want >= d || ins[i].want == 0 {
			t.Fatalf("%s: minimum cut %d is a singleton (min degree %d) or zero", ins[i].name, ins[i].want, d)
		}
	}
	return ins
}

// TestAdmissionSuccessProbability: Parallel over 300 seeds per row, p
// cycling through {1, 2, 4} (results are bit-identical across p for one
// seed, so cycling buys independent samples where a full product would
// buy none). A one-sided binomial test at false-alarm rate 10⁻³ must not
// reject "success ≥ target". At 0.9 the trial count leaves every input
// enough slack that all seeds hit, which shows the bound is met but not
// that the test could see it missed; the last row asks the dumbbell for
// 0.5 — few enough trials that some seeds do miss — and must observe a
// rate strictly between its target and 1. Under -short (the race pass,
// ten times slower per solve) 45 seeds keep the test's machinery under
// the detector; the full sample is the default run's.
func TestAdmissionSuccessProbability(t *testing.T) {
	const falseAlarm = 1e-3
	seeds := 300
	if testing.Short() {
		seeds = 45
	}
	type row struct {
		admissionInput
		target   float64
		mustMiss bool // a saturated row has no power: fail so it is re-aimed
	}
	var rows []row
	ins := admissionInputs(t)
	for _, in := range ins {
		rows = append(rows, row{in, 0.9, false})
	}
	low := ins[2] // the dumbbell: the lowest measured per-trial rate
	low.name = "dumbbell-at-0.5"
	rows = append(rows, row{low, 0.5, true})
	ps := []int{1, 2, 4}
	for _, in := range rows {
		t.Run(in.name, func(t *testing.T) {
			hits := 0
			for seed := 1; seed <= seeds; seed++ {
				r := parallelCut(t, in.g, ps[seed%len(ps)], uint64(seed), Options{SuccessProb: in.target})
				if !r.Check(in.g) {
					t.Fatalf("seed %d: inconsistent result", seed)
				}
				if r.Value == in.want {
					hits++
				}
			}
			rate := float64(hits) / float64(seeds)
			t.Logf("n=%d m=%d, %d trials: success %d/%d = %.4f", in.g.N, in.g.M(),
				Trials(in.g.N, in.g.M(), in.target), hits, seeds, rate)
			if pv := oracle.BinomialCDF(hits, seeds, in.target); pv < falseAlarm {
				t.Errorf("success rate %.4f rejects \"success ≥ %.1f\" (p-value %.2g < %.0e)",
					rate, in.target, pv, falseAlarm)
			}
			if in.mustMiss && hits == seeds {
				t.Errorf("every seed hit at target %.1f: the row cannot tell a met bound from an idle one", in.target)
			}
		})
	}
}

// TestAdmissionPerTrialSuccess: one Eager+Recursive trial must hit the
// minimum at least as often as perTrialSuccess promises — the bound
// Trials is derived from.
func TestAdmissionPerTrialSuccess(t *testing.T) {
	const trials = 2000
	a := getKSArena()
	defer putKSArena(a)
	for _, in := range admissionInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			st, first := rng.New(41, 0, 0), edgeSampler(in.g.Edges)
			hits := 0
			for i := 0; i < trials; i++ {
				if val, _, _ := sequentialTrial(a, in.g, first, st.At(uint32(i), trialLane), math.MaxUint64); val == in.want {
					hits++
				}
			}
			rate, bound := float64(hits)/trials, perTrialSuccess(in.g.N, in.g.M(), BaseCaseSize)
			t.Logf("per-trial hit rate %d/%d = %.4f, bound %.4f", hits, trials, rate, bound)
			if rate < bound {
				t.Errorf("per-trial hit rate %.4f below perTrialSuccess %.4f", rate, bound)
			}
		})
	}
}

// TestAdmissionRecursionSuccess isolates Lemma 2.2's half of the bound:
// one run of recursive contraction straight on the 84-vertex two-cliques
// matrix (no Eager Step in front; three levels of branching above the
// exact leaves) must hit at least as often as recursionSuccess promises.
func TestAdmissionRecursionSuccess(t *testing.T) {
	const runs = 1000
	in := admissionInputs(t)[0]
	m := graph.MatrixFromGraph(in.g)
	a := getKSArena()
	defer putKSArena(a)
	st := rng.New(43, 0, 0)
	hits := 0
	for i := 0; i < runs; i++ {
		val, side := a.ksRecurse(m, st.At(uint32(i), trialLane), math.MaxUint64)
		a.putBools(side)
		if val == in.want {
			hits++
		}
	}
	rate, bound := float64(hits)/runs, recursionSuccess(m.N, BaseCaseSize)
	t.Logf("per-run hit rate %d/%d = %.4f, bound %.4f", hits, runs, rate, bound)
	if rate < bound {
		t.Errorf("per-run hit rate %.4f below recursionSuccess(%d, %d) = %.4f", rate, m.N, BaseCaseSize, bound)
	}
}

// TestAdmissionAllMinCuts: AllMinCuts promises the *whole* tied set with
// probability successProb, from allCutsTrials' union bound over a
// per-trial bound that must be the tie-preserving recursion's own (base
// allCutsBaseSize, not BaseCaseSize). The cycle is that bound's worst
// case — n(n−1)/2 tied cuts, and contraction survival exactly
// t(t−1)/(k(k−1)) for each — with an eager target between the two bases,
// so a count derived from the wrong base loses whole-set runs here; the
// two-cliques row sends a unique cut through four levels of tied-set
// merging. A run counts as a hit only if every cut came back.
func TestAdmissionAllMinCuts(t *testing.T) {
	const (
		target     = 0.9
		falseAlarm = 1e-3
	)
	seeds := 60
	if testing.Short() {
		seeds = 6
	}
	cycle := gen.Cycle(82, 1)
	if tgt := eagerTarget(cycle.M()); tgt <= allCutsBaseSize || tgt > BaseCaseSize {
		t.Fatalf("cycle: eager target %d is not between the two base cases (%d, %d]", tgt, allCutsBaseSize, BaseCaseSize)
	}
	for _, in := range []struct {
		name     string
		g        *graph.Graph
		want     uint64
		wantCuts int
	}{
		{"cycle", cycle, 2, cycle.N * (cycle.N - 1) / 2},
		{"two-cliques", gen.TwoCliques(24, 4, 1, 1), 4, 1},
	} {
		t.Run(in.name, func(t *testing.T) {
			hits := 0
			for seed := 1; seed <= seeds; seed++ {
				cuts := AllMinCuts(in.g, rng.New(uint64(seed), 0, 0), target)
				for _, c := range cuts {
					if c.Value != in.want || !c.Check(in.g) {
						t.Fatalf("seed %d: reported a cut of value %d that is not a minimum cut (%d)", seed, c.Value, in.want)
					}
				}
				if len(cuts) == in.wantCuts {
					hits++
				}
			}
			rate := float64(hits) / float64(seeds)
			t.Logf("n=%d m=%d, %d trials: all %d cuts in %d/%d = %.4f runs", in.g.N, in.g.M(),
				allCutsTrials(in.g.N, in.g.M(), target), in.wantCuts, hits, seeds, rate)
			if pv := oracle.BinomialCDF(hits, seeds, target); pv < falseAlarm {
				t.Errorf("whole-set rate %.4f rejects \"success ≥ %.1f\" (p-value %.2g < %.0e)",
					rate, target, pv, falseAlarm)
			}
		})
	}
}
