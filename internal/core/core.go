// Package core orchestrates the paper's algorithms end to end: it checks
// out a pooled BSP machine, hands every rank its block of the input edge
// array, runs the requested computation (connected components §3.2,
// approximate minimum cut §3.3, or exact minimum cut §4), and reports the
// result together with the run's BSP cost profile (supersteps,
// communication volume, and the application/communication wall-time
// split — the paper's measurement set). The root package camc re-exports
// this API for downstream users.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/approxcut"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
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

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

func (o Options) successProb() float64 {
	if o.SuccessProb > 0 && o.SuccessProb < 1 {
		return o.SuccessProb
	}
	return 0.9
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

func statsOf(st *bsp.Stats) RunStats {
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

// validate is g.Validate() done the way run hands the edge array out:
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

// run is the one way the library executes a kernel: validate the input,
// check out a pooled p-processor machine, give rank r the r-th block of
// g.Edges in place — the paper's born-distributed edge array; kernels
// only read their block — with its own random stream, and return the
// machine to the pool. A failed run's machine is dropped, not pooled.
func run(g *graph.Graph, opts Options, body func(c *bsp.Comm, local []graph.Edge, st *rng.Stream)) (RunStats, error) {
	if g == nil {
		return RunStats{}, fmt.Errorf("core: nil graph")
	}
	p := opts.processors()
	if err := validate(g, p); err != nil {
		return RunStats{}, err
	}
	m, err := bsp.AcquireMachine(p)
	if err != nil {
		return RunStats{}, err
	}
	st, err := m.Run(func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		body(c, g.Edges[lo:hi], rng.New(opts.seed(), uint32(c.Rank()), 0))
	})
	if err != nil {
		return RunStats{}, err
	}
	bsp.ReleaseMachine(m)
	return statsOf(st), nil
}

// MinCutResult is the outcome of an exact minimum cut run.
type MinCutResult struct {
	Value  uint64
	Side   []bool // one side of the cut partition
	Trials int
	Stats  RunStats
}

// MinCut computes a global minimum cut of g with probability at least
// SuccessProb using the communication-avoiding parallel algorithm.
func MinCut(g *graph.Graph, opts Options) (*MinCutResult, error) {
	var res *mincut.CutResult
	st, err := run(g, opts, func(c *bsp.Comm, local []graph.Edge, stream *rng.Stream) {
		r := mincut.Parallel(c, g.N, local, stream, mincut.Options{
			SuccessProb: opts.successProb(),
			MaxTrials:   opts.MaxTrials,
		})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	return &MinCutResult{Value: res.Value, Side: res.Side, Trials: res.Trials, Stats: st}, nil
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
	var res *approxcut.Result
	st, err := run(g, opts, func(c *bsp.Comm, local []graph.Edge, stream *rng.Stream) {
		r := approxcut.Parallel(c, g.N, local, stream, approxcut.Options{
			Trials:    opts.ApproxTrials,
			Pipelined: opts.Pipelined,
		})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	return &ApproxCutResult{Value: res.Value, Iterations: res.Iterations, Stats: st}, nil
}

// CCResult is a connected-components labelling.
type CCResult struct {
	Labels []int32 // dense component ids, one per vertex
	Count  int
	Stats  RunStats
}

// ConnectedComponents labels the connected components of g with the
// communication-avoiding iterated-sampling algorithm (§3.2).
func ConnectedComponents(g *graph.Graph, opts Options) (*CCResult, error) {
	var res *cc.Result
	st, err := run(g, opts, func(c *bsp.Comm, local []graph.Edge, stream *rng.Stream) {
		r := cc.Parallel(c, g.N, local, stream, cc.Options{Epsilon: opts.Epsilon})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	return &CCResult{Labels: res.Labels, Count: res.Count, Stats: st}, nil
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
func AllMinCuts(g *graph.Graph, opts Options) (*AllCutsResult, error) {
	var cuts []*mincut.CutResult
	st, err := run(g, opts, func(c *bsp.Comm, local []graph.Edge, stream *rng.Stream) {
		r := mincut.ParallelAllMinCuts(c, g.N, local, stream, opts.successProb())
		if c.Rank() == 0 {
			cuts = r
		}
	})
	if err != nil {
		return nil, err
	}
	res := &AllCutsResult{Stats: st}
	for _, c := range cuts {
		res.Value = c.Value
		res.Sides = append(res.Sides, c.Side)
	}
	return res, nil
}
