package mincut

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
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

func plantedBisection(half, cross int, seed uint64) *graph.Graph {
	st := rng.New(seed, 0, 0)
	g := graph.New(2 * half)
	for side := 0; side < 2; side++ {
		for i := 0; i < half; i++ {
			for j := i + 1; j < half; j++ {
				if st.Intn(2) == 0 {
					g.AddEdge(int32(side*half+i), int32(side*half+j), 1)
				}
			}
		}
	}
	for k := 0; k < cross; k++ {
		g.AddEdge(int32(st.Intn(half)), int32(half+st.Intn(half)), 1)
	}
	return g
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
		{name: "planted-bisection", g: plantedBisection(60, 4, 3)},
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

// binomialCDF returns P[X ≤ k] for X ~ Binomial(n, p).
func binomialCDF(k, n int, p float64) float64 {
	var cdf float64
	for i := 0; i <= k; i++ {
		lc, _ := math.Lgamma(float64(n + 1))
		la, _ := math.Lgamma(float64(i + 1))
		lb, _ := math.Lgamma(float64(n - i + 1))
		cdf += math.Exp(lc - la - lb + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return cdf
}

// TestAdmissionSuccessProbability: Parallel at SuccessProb 0.9 over 300
// seeds per input, p cycling through {1, 2, 4} (results are bit-
// identical across p for one seed, so cycling buys independent samples
// where a full product would buy none). A one-sided binomial test at
// false-alarm rate 10⁻³ must not reject "success ≥ 0.9". Under -short
// (the race pass, ten times slower per solve) 45 seeds keep the test's
// machinery under the detector; the full sample is the default run's.
func TestAdmissionSuccessProbability(t *testing.T) {
	const (
		target     = 0.9
		falseAlarm = 1e-3
	)
	seeds := 300
	if testing.Short() {
		seeds = 45
	}
	ps := []int{1, 2, 4}
	for _, in := range admissionInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			hits := 0
			for seed := 1; seed <= seeds; seed++ {
				r := parallelCut(t, in.g, ps[seed%len(ps)], uint64(seed), Options{SuccessProb: target})
				if !r.Check(in.g) {
					t.Fatalf("seed %d: inconsistent result", seed)
				}
				if r.Value == in.want {
					hits++
				}
			}
			rate := float64(hits) / float64(seeds)
			t.Logf("n=%d m=%d, %d trials: success %d/%d = %.4f", in.g.N, in.g.M(),
				Trials(in.g.N, in.g.M(), target), hits, seeds, rate)
			if pv := binomialCDF(hits, seeds, target); pv < falseAlarm {
				t.Errorf("success rate %.4f rejects \"success ≥ %.1f\" (p-value %.2g < %.0e)",
					rate, target, pv, falseAlarm)
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
			st := rng.New(41, 0, 0)
			hits := 0
			for i := 0; i < trials; i++ {
				if val, _, _ := sequentialTrial(a, in.g, st.At(uint32(i), trialLane)); val == in.want {
					hits++
				}
			}
			rate, bound := float64(hits)/trials, perTrialSuccess(in.g.N, in.g.M())
			t.Logf("per-trial hit rate %d/%d = %.4f, bound %.4f", hits, trials, rate, bound)
			if rate < bound {
				t.Errorf("per-trial hit rate %.4f below perTrialSuccess %.4f", rate, bound)
			}
		})
	}
}
