// Package core is the library facade over the paper's algorithms:
// connected components (§3.2), approximate minimum cut (§3.3), and exact
// minimum cut (§4). It runs the algorithm's default member of the
// planner's kernel table through Kernel.Exec — the same call, with the
// same RunParams, that an unpinned query makes — on a pooled BSP machine,
// rank r reading block r of the edge array, and reports the result
// together with the run's BSP cost profile (supersteps, communication
// volume, and the application/communication wall-time split — the
// paper's measurement set). The root package camc re-exports this API
// for downstream users.
//
// An invalid input returns g.Validate()'s error and no result, but the
// order differs. The cut algorithms validate the edge array before the
// run: their first reads are shared helpers (the edge gather, the total
// weight) whose other callers pass validated data, and a loop or a zero
// weight would give a wrong answer, not a failed run. Connected
// components does not: its kernel checks every edge on its first read
// of it and fails the run on an invalid one, so a valid array streams
// from memory once instead of twice, and the array is validated only
// after a failed run, to name the violation.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/planner"
)

// Options configures a run. The zero value selects sensible defaults.
type Options struct {
	// Processors is the number of virtual BSP processors (default: the
	// number of CPUs, at most 16).
	Processors int
	// Seed drives all randomness; identical seeds reproduce identical
	// results (default 1).
	Seed uint64
	// SuccessProb is the target success probability of randomized exact
	// algorithms (default 0.9, the artifact's setting).
	SuccessProb float64
	// MaxTrials optionally caps the exact minimum cut trial count.
	MaxTrials int
	// Pipelined selects the fully pipelined O(1)-superstep variant of the
	// approximate cut (default: early-stopping practical variant).
	Pipelined bool
	// Epsilon tunes the connected-components sample size s = n^(1+ε/2)
	// (default 0.5; the paper's cache analyses assume a small constant).
	Epsilon float64
	// ApproxTrials overrides the Θ(log n) trials per sparsity level of
	// the approximate cut (0 = default).
	ApproxTrials int
}

func (o Options) processors() int {
	if o.Processors > 0 {
		return o.Processors
	}
	p := runtime.NumCPU()
	if p > 16 {
		p = 16
	}
	if p < 1 {
		p = 1
	}
	return p
}

// params maps the options onto the kernel table's RunParams, defaulted
// the way a query's tuning fields are. An out-of-range success
// probability falls back to the default instead of failing.
func (o Options) params() planner.RunParams {
	par := planner.RunParams{Seed: o.Seed, Epsilon: o.Epsilon, MaxTrials: o.MaxTrials, Trials: o.ApproxTrials, Pipelined: o.Pipelined}
	if o.SuccessProb > 0 && o.SuccessProb < 1 {
		par.SuccessProb = o.SuccessProb
	}
	return par.Defaulted()
}

// RunStats summarizes the BSP cost profile of one run. Like the paper's
// measurements it starts from an already distributed edge array: handing
// the ranks their blocks moves no words and is not on the ledger.
type RunStats struct {
	P            int
	Supersteps   int
	CommVolume   uint64 // words, sum of per-superstep h-relations
	Time         time.Duration
	CommTime     time.Duration // the T_MPI analogue
	CommFraction float64       // CommTime / Time
	Ops          uint64        // max local operations over processors
}

// StatsOf summarizes a machine's ledger the way every result here
// reports it; cmd/bench uses it for the bodies it runs through
// planner.RunBlocks itself.
func StatsOf(st *bsp.Stats) RunStats {
	return RunStats{
		P:            st.P,
		Supersteps:   st.Supersteps,
		CommVolume:   st.CommVolume,
		Time:         st.Total(),
		CommTime:     st.MaxCommTime,
		CommFraction: st.CommFraction(),
		Ops:          st.MaxOps,
	}
}

// validate is g.Validate() done the way a run hands the edge array out:
// the p blocks are checked concurrently, and the lowest block's error —
// the violation a serial scan meets first — is the one returned.
func validate(g *graph.Graph, p int) error {
	errs := make([]error, p)
	check := func(r int) {
		lo, hi := dist.BlockRange(len(g.Edges), p, r)
		errs[r] = graph.ValidateEdges(g.N, g.Edges[lo:hi], lo)
	}
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(r)
		}()
	}
	check(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shape returns the pooled machine a run of g takes, validating g first
// when pre is set.
func shape(g *graph.Graph, opts Options, pre bool) (planner.Shape, error) {
	if g == nil {
		return planner.Shape{}, fmt.Errorf("core: nil graph")
	}
	sh := planner.Shape{P: opts.processors()}
	if !pre {
		return sh, nil
	}
	return sh, validate(g, sh.P)
}

// exec runs alg's kernel over g and returns rank 0's outcome.
// The cut kernels run on a validated g. The CC kernel checks each edge
// as it first reads it, so g is validated only after a failed run: any
// rank may trip first, and validate's error names the lowest invalid
// index whichever did. (A negative vertex count fails the run too, on
// its first n-sized buffer.)
func exec(g *graph.Graph, opts Options, alg string) (*planner.Outcome, RunStats, error) {
	checked := alg == "cc"
	sh, err := shape(g, opts, !checked)
	if err != nil {
		return nil, RunStats{}, err
	}
	out, st, err := planner.For(alg).Exec(context.Background(), sh, g.N, g.Edges, opts.params(), nil)
	if err != nil {
		if checked {
			if verr := validate(g, sh.P); verr != nil {
				err = verr
			}
		}
		return nil, RunStats{}, err
	}
	return out, StatsOf(st), nil
}

// MinCutResult is the outcome of an exact minimum cut run.
type MinCutResult struct {
	Value uint64
	Side  []bool // one side of the cut partition
	// Trials is the number of contraction trials run: 0 when the
	// min-degree cut is proven minimum; no randomness drawn.
	Trials int
	Stats  RunStats
}

// MinCut computes a global minimum cut of g with probability at least
// SuccessProb using the communication-avoiding parallel algorithm, led
// by a deterministic certificate: when that proves the min-degree cut
// minimum, the run ends after the edge gather with Trials 0.
func MinCut(g *graph.Graph, opts Options) (*MinCutResult, error) {
	out, st, err := exec(g, opts, "mincut")
	if err != nil {
		return nil, err
	}
	return &MinCutResult{Value: out.Value, Side: out.Side, Trials: out.Trials, Stats: st}, nil
}

// ApproxCutResult is the outcome of an approximate minimum cut run.
type ApproxCutResult struct {
	Value      uint64 // O(log n)-approximate estimate (a power of two)
	Iterations int
	Stats      RunStats
}

// ApproxMinCut estimates the minimum cut of g within an O(log n) factor
// w.h.p. using near-linear work (§3.3).
func ApproxMinCut(g *graph.Graph, opts Options) (*ApproxCutResult, error) {
	out, st, err := exec(g, opts, "approxcut")
	if err != nil {
		return nil, err
	}
	return &ApproxCutResult{Value: out.Value, Iterations: out.Iterations, Stats: st}, nil
}

// CCResult is a connected-components labelling.
type CCResult struct {
	Labels []int32 // dense component ids, one per vertex
	Count  int
	Stats  RunStats
}

// ConnectedComponents labels the connected components of g with the
// communication-avoiding iterated-sampling algorithm (§3.2). An invalid
// g returns g.Validate()'s error and no result; the kernel finds it on
// its one pass over the edges, and only then is g validated.
func ConnectedComponents(g *graph.Graph, opts Options) (*CCResult, error) {
	out, st, err := exec(g, opts, "cc")
	if err != nil {
		return nil, err
	}
	return &CCResult{Labels: out.Labels, Count: out.Components, Stats: st}, nil
}

// AllCutsResult carries every distinct minimum cut of a graph.
type AllCutsResult struct {
	Value uint64
	Sides [][]bool // canonical orientation (vertex 0 outside each side)
	Stats RunStats
}

// AllMinCuts computes the set of all distinct global minimum cuts
// (Lemma 4.3), each found with probability at least SuccessProb, with
// the tie-preserving trials distributed over the processors.
//
// It is not in the planner's kernel table (planner.For), so it runs its
// body through planner.RunBlocks directly, on the same pooled machine
// shape.
func AllMinCuts(g *graph.Graph, opts Options) (*AllCutsResult, error) {
	sh, err := shape(g, opts, true)
	if err != nil {
		return nil, err
	}
	par := opts.params()
	var cuts []*mincut.CutResult
	st, err := planner.RunBlocks(context.Background(), sh, g.Edges, func(c *bsp.Comm, local []graph.Edge) {
		if r := mincut.ParallelAllMinCuts(c, g.N, local, par.Stream(c), par.SuccessProb); c.Rank() == 0 {
			cuts = r
		}
	})
	if err != nil {
		return nil, err
	}
	res := &AllCutsResult{Stats: StatsOf(st)}
	for _, c := range cuts {
		res.Value = c.Value
		res.Sides = append(res.Sides, c.Side)
	}
	return res, nil
}
