package mincut

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// eagerTarget is the Eager Step's contraction target: ⌈√m⌉+1 vertices
// (§4), bounded below so the recursion base case stays meaningful.
func eagerTarget(m int) int {
	t := int(math.Ceil(math.Sqrt(float64(m)))) + 1
	if t < 2 {
		t = 2
	}
	return t
}

// sequentialTrial runs one full trial — Eager Step followed by one run of
// Recursive Contraction — and returns the cut found, lifted to g's
// vertices, plus the trial's deterministic work count (the eager rounds'
// measured scans plus the recursion's O(t̄² log t̄) estimate on the
// contracted size). The work count is a function of the trial's stream
// alone, never of the rank running it, so the total work is
// schedule-independent; the per-rank sum, and with it MaxOps, is not
// under dynamic scheduling (see dynamicTrials).
// The graph must have at least 2 vertices and 1 edge. The caller owns the
// returned side; all recursion scratch comes from a, so a trial loop
// sharing one arena allocates only the lifted side per trial.
//
// bound is what the caller's best cut already makes unbeatable (see
// ksRecurse): the trial returns its unbounded (value, side) whenever
// that value is below bound, and otherwise some value ≥ bound, possibly
// math.MaxUint64 with a nil side. math.MaxUint64 bounds nothing. The
// work count never depends on it. first is edgeSampler(g.Edges), shared
// by every trial of a solve (see eagerSequential).
func sequentialTrial(a *ksArena, g *graph.Graph, first *rng.PrefixSampler, st *rng.Stream, bound uint64) (uint64, []bool, uint64) {
	mat, mapping, ops := eagerSequential(a, g, first, eagerTarget(len(g.Edges)), st)
	defer a.putInts(mapping)
	defer a.putWords(mat.W)
	if mat.N < 2 {
		// Fully contracted (can happen on tiny graphs): fall back to the
		// min-degree cut of the original.
		val, side := minDegreeCut(g)
		return val, side, ops + uint64(len(g.Edges))
	}
	tn := float64(mat.N)
	ops += uint64(tn*tn) + uint64(2*tn*tn*math.Log2(tn+2))
	val, side := a.ksRecurse(mat, st, bound)
	if side == nil {
		return val, nil, ops
	}
	lifted := make([]bool, g.N)
	for v := range lifted {
		lifted[v] = side[mapping[v]]
	}
	a.putBools(side)
	return val, lifted, ops
}

// recursionTarget is the vertex count one recursive-contraction branch
// contracts an n-vertex graph to: ⌈n/√2⌉+1 (§2.4), clamped so a branch
// always contracts at least one edge. Both recursions in the package —
// ksRecurse and ksRecurseAll — and the bound that describes them,
// recursionSuccess, take their target from here.
func recursionTarget(n int) int {
	t := int(math.Ceil(float64(n)/math.Sqrt2)) + 1
	if t >= n {
		t = n - 1
	}
	return t
}

// contractionSurvival lower-bounds the probability that a particular
// minimum cut survives random contraction from k vertices down to t
// (Lemma 2.1; an equality on cycles).
func contractionSurvival(k, t int) float64 {
	return float64(t) * float64(t-1) / (float64(k) * float64(k-1))
}

// recursionSuccess lower-bounds the probability that one run of
// recursive contraction on k vertices, solving exactly at or below base
// vertices, reports a particular minimum cut. It is Lemma 2.2's own
// induction evaluated rather than bounded again by 1/Θ(log k): a leaf
// never misses a cut that reached it, a branch keeps the cut through its
// contraction to t = recursionTarget(k) vertices with probability at
// least contractionSurvival(k, t), and the run fails only if both
// independent branches do. O(log k) evaluations: the two branches share
// one value.
func recursionSuccess(k, base int) float64 {
	if k <= base {
		return 1
	}
	t := recursionTarget(k)
	miss := 1 - contractionSurvival(k, t)*recursionSuccess(t, base)
	return 1 - miss*miss
}

// perTrialSuccess lower-bounds the probability that one Eager+Recursive
// trial whose recursion solves exactly at base vertices finds a
// particular minimum cut: the cut survives the eager contraction to
// t̄ = ⌈√m⌉+1 vertices with probability at least t̄(t̄−1)/(n(n−1)) ~ m/n²
// (Lemma 2.1), and one recursive contraction run on the min(t̄, n)
// vertices left finds a surviving cut with probability at least
// recursionSuccess (Lemma 2.2).
func perTrialSuccess(n, m, base int) float64 {
	t := min(eagerTarget(m), n)
	return contractionSurvival(n, t) * recursionSuccess(t, base)
}

func clampSuccessProb(p float64) float64 {
	if p <= 0 {
		return 0.9
	}
	if p >= 1 {
		return 1 - 1e-9
	}
	return p
}

// repetitions returns how many independent runs, each finding any one
// particular minimum cut with probability at least q, find all of cuts
// such cuts with probability successProb (a union bound; cuts = 1 asks
// for the minimum value only).
func repetitions(q, successProb, cuts float64) int {
	return max(1, int(math.Ceil(math.Log(cuts/(1-clampSuccessProb(successProb)))/q)))
}

// Trials returns the number of independent Eager+Recursive trials needed
// to find a minimum cut with probability successProb; the product of the
// Lemma 2.1/2.2 bounds yields the paper's Θ((n²/m)·polylog n) count.
func Trials(n, m int, successProb float64) int {
	if n < 8 || m == 0 {
		return 1
	}
	return repetitions(perTrialSuccess(n, m, BaseCaseSize), successProb, 1)
}

// allCutsTrials returns the trial count needed to find *every* minimum
// cut with probability successProb: a union bound over the at most
// n(n-1)/2 minimum cuts (Lemma 4.3). The per-trial bound is the
// tie-preserving recursion's own — ksRecurseAll branches down to
// allCutsBaseSize, so a cut that reaches 41 vertices is not yet found.
func allCutsTrials(n, m int, successProb float64) int {
	if n < 2 || m == 0 {
		return 1
	}
	numCuts := float64(n) * float64(n-1) / 2
	return max(8, repetitions(perTrialSuccess(n, m, allCutsBaseSize), successProb, numCuts))
}

// denseRegime reports whether the graph is dense enough (m ≥ n²/log n,
// §3 "Graph Representation") that the Eager Step degenerates and trials
// should run recursive contraction directly on a shared adjacency
// matrix.
func denseRegime(n, m int) bool {
	if n < 4 {
		return true
	}
	return float64(m) >= float64(n)*float64(n)/math.Log2(float64(n))
}

// Sequential computes a global minimum cut with probability at least
// successProb using the full algorithm of §4 run on one processor: t
// trials of Eager Step + Recursive Contraction, keeping the best cut.
// Dense inputs (m ≥ n²/log n) skip the Eager Step and share one
// adjacency matrix across trials — the paper's AM representation. A
// trial only replaces a strictly better best, so each is bounded by
// the best so far.
func Sequential(g *graph.Graph, st *rng.Stream, successProb float64) *CutResult {
	if g.N < 2 {
		return &CutResult{Value: 0, Side: make([]bool, g.N)}
	}
	if !g.IsConnected() {
		// The minimum cut of a disconnected graph is 0: any component.
		return &CutResult{Value: 0, Side: g.ComponentOf(0), Trials: 0}
	}
	trials := Trials(g.N, len(g.Edges), successProb)
	best := &CutResult{Value: math.MaxUint64, Trials: trials}
	a := getKSArena()
	if denseRegime(g.N, len(g.Edges)) && eagerTarget(len(g.Edges)) >= g.N {
		mat := graph.MatrixFromGraph(g)
		for i := 0; i < trials; i++ {
			val, side := a.ksRecurse(mat, st, best.Value)
			if val < best.Value {
				best.Value = val
				best.Side = append(best.Side[:0], side...)
			}
			a.putBools(side)
		}
	} else {
		first := edgeSampler(g.Edges)
		for i := 0; i < trials; i++ {
			val, side, _ := sequentialTrial(a, g, first, st, best.Value)
			if val < best.Value {
				best.Value = val
				best.Side = side
			}
		}
	}
	putKSArena(a)
	if dv, ds := minDegreeCut(g); dv < best.Value {
		best.Value = dv
		best.Side = ds
	}
	return best
}
