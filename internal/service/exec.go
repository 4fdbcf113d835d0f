package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bsp"
	"repro/internal/planner"
	"repro/internal/trace"
)

// Supported algorithms.
const (
	AlgCC        = "cc"        // connected components (§3.2)
	AlgMinCut    = "mincut"    // exact minimum cut (§4)
	AlgApproxCut = "approxcut" // O(log n)-approximate minimum cut (§3.3)
)

// algUnknown is the one metrics label every unsupported algorithm name is
// observed under: request bodies are untrusted, and each distinct label
// is a permanent /metrics series.
const algUnknown = "unknown"

func knownAlgorithm(alg string) bool { return planner.For(alg) != nil }

// QueryRequest describes one analytics query against a registered graph.
// The zero value of every tuning field selects the repo-wide default.
type QueryRequest struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	// Seed drives all randomness (default 1). Identical (graph version,
	// algorithm, parameters, seed) queries are identical computations —
	// which is what makes them cacheable and coalescable.
	Seed uint64 `json:"seed,omitempty"`
	// Processors pins the BSP machine size; 0 lets the scheduler size it
	// from the graph (clamped to the engine's MaxProcessors either way).
	Processors int `json:"processors,omitempty"`
	// SuccessProb targets the exact min cut success probability
	// (default 0.9).
	SuccessProb float64 `json:"success_prob,omitempty"`
	// MaxTrials caps the exact min cut trial count (0 = theory-derived).
	MaxTrials int `json:"max_trials,omitempty"`
	// Epsilon tunes the CC sample size s = n^(1+ε/2) (default 0.5).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Trials overrides the approximate cut's trials per sparsity level
	// (at most maxTrials).
	Trials int `json:"trials,omitempty"`
	// Pipelined selects the O(1)-superstep approximate cut variant.
	Pipelined bool `json:"pipelined,omitempty"`
	// TimeoutMillis bounds queueing plus result wait (0 = engine default).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// IncludeLabels / IncludeSide opt into the bulky parts of the result
	// in HTTP responses (the cache always stores them).
	IncludeLabels bool `json:"include_labels,omitempty"`
	IncludeSide   bool `json:"include_side,omitempty"`
	// NoCache skips the cache lookup (the result is still stored).
	NoCache bool `json:"no_cache,omitempty"`
}

// maxTrials bounds a query's approximate-cut trials per level: twice
// the largest default, ⌈log₂ n⌉ ≤ 31. The kernel reserves a buffer in
// proportion to the trial count before its first draw, so an unbounded
// count is an allocation no recover can catch.
const maxTrials = 64

// normalize validates a request's tuning fields and returns their
// defaulted form — the canonical identity used for cache keys and
// coalescing, and what a distributed executor ships to its peers.
func normalize(req *QueryRequest) (planner.RunParams, error) {
	if !knownAlgorithm(req.Algorithm) {
		return planner.RunParams{}, fmt.Errorf("%w: unknown algorithm %q (want %s|%s|%s)",
			ErrBadRequest, req.Algorithm, AlgCC, AlgMinCut, AlgApproxCut)
	}
	p := planner.RunParams{
		Seed:        req.Seed,
		Epsilon:     req.Epsilon,
		SuccessProb: req.SuccessProb,
		MaxTrials:   req.MaxTrials,
		Trials:      req.Trials,
		Pipelined:   req.Pipelined,
	}.Defaulted()
	if p.Epsilon < 0 || p.Epsilon > 2 {
		return p, fmt.Errorf("%w: epsilon %g out of (0, 2]", ErrBadRequest, req.Epsilon)
	}
	if p.SuccessProb <= 0 || p.SuccessProb >= 1 {
		return p, fmt.Errorf("%w: success_prob %g out of (0, 1)", ErrBadRequest, req.SuccessProb)
	}
	if p.MaxTrials < 0 || p.Trials < 0 || req.Processors < 0 {
		return p, fmt.Errorf("%w: negative tuning parameter", ErrBadRequest)
	}
	if p.Trials > maxTrials {
		return p, fmt.Errorf("%w: trials %d over %d", ErrBadRequest, p.Trials, maxTrials)
	}
	return p, nil
}

// KernelStats is the BSP cost profile of one kernel execution; the
// record is declared in internal/trace, where its aggregates are.
type KernelStats = trace.KernelStats

// QueryResult is the full outcome of one kernel execution; it is the
// unit the cache stores, so it always carries the complete labelling /
// cut side even when the response omits them.
type QueryResult struct {
	Graph     string
	Version   uint64
	Algorithm string
	// The kernel's answer (Value, Components, Labels, Side, …; AchievedProb
	// when Degraded), as Kernel.Run or the run's checkpoint produced it.
	planner.Outcome
	Kernel KernelStats

	// Degraded marks a best-so-far answer from a deadline-cancelled run:
	// still a valid cut (or one-sided estimate), but at a weaker guarantee
	// than requested. Degraded results are never cached.
	Degraded bool
	// RetryAfterMs estimates the extra time the query would have needed to
	// complete, a client retry hint (when Degraded).
	RetryAfterMs int64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func kernelStatsOf(st *bsp.Stats) KernelStats {
	return KernelStats{
		P:                  st.P,
		Supersteps:         st.Supersteps,
		CommVolume:         st.CommVolume,
		MaxHRelation:       st.MaxHRelation(),
		TimeMs:             ms(st.Total()),
		CommTimeMs:         ms(st.MaxCommTime),
		MaxOps:             st.MaxOps,
		AvoidedCollectives: st.AvoidedCollectives,
		AvoidedCommVolume:  st.AvoidedCommVolume,
		Transport:          st.Transport,
		WireBytes:          st.WireBytes,
		// Every payload goes raw, so the raw-equivalent count is the
		// wire count; the field stays only because the benchmark
		// harness reads it to decide whether to print wire bytes.
		WireRawBytes: st.WireBytes,
	}
}

// Run is the one way a query's kernel is executed: it looks up alg's
// kernel (planner.For) and drives Kernel.Exec over the snapshot's frozen
// edge array in the given shape, cancellable through ctx — when the
// deadline fires (or every waiter abandons the call) the machine is
// cancelled and unwinds within one superstep. A cancelled run on a pooled machine degrades to
// the kernel checkpoint's best-so-far answer when one exists; otherwise
// the error wraps bsp.ErrCancelled for the engine to map. A process of a
// TCP machine hosting no global rank 0 gets (nil, nil).
//
// Beyond the machine pool (planner.RunBlocks, shared with the library
// facade), the kernels themselves draw scratch from process-wide
// sync.Pools (the Karger–Stein arena in internal/mincut, sort buffers in
// internal/sort, remap tables and union-finds in internal/graph), so
// concurrent queries recycle each other's
// allocations instead of growing the heap per query. See
// stress_test.go for the race-checked exercise of that sharing.
func Run(ctx context.Context, sg *StoredGraph, alg string, pr planner.RunParams, sh planner.Shape) (*QueryResult, error) {
	k := planner.For(alg)
	if k == nil {
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrBadRequest, alg)
	}
	var cp planner.Checkpoint
	if sh.Machine == nil && k.NewCheckpoint != nil {
		cp = k.NewCheckpoint()
	}
	res := &QueryResult{Graph: sg.Name, Version: sg.Version, Algorithm: alg}
	start := time.Now()
	out, st, err := k.Exec(ctx, sh, sg.Snap.N(), sg.Snap.Edges(), pr, cp)
	if err != nil {
		if cp != nil && errors.Is(err, bsp.ErrCancelled) {
			// Degrade to the checkpoint's best-so-far answer, if any.
			if part, done, planned := cp.Partial(); part != nil {
				res.Outcome = *part
				res.Degraded = true
				res.RetryAfterMs = retryHint(time.Since(start), done, planned)
				return res, nil
			}
		}
		return nil, err
	}
	if out == nil {
		return nil, nil
	}
	res.Outcome = *out
	res.Kernel = kernelStatsOf(st)
	res.Kernel.Kernel = k.Name
	return res, nil
}

// Executor runs kernels on behalf of the engine. When Config.Executor is
// set the engine delegates every execution to it instead of running on a
// pooled in-process machine; the cache, coalescing, admission control,
// and retry/degradation policy stay in the engine. MachineP reports the
// fixed machine size the executor runs at (a distributed machine's size
// is its worker-group size, not a per-query choice).
type Executor interface {
	MachineP() int
	Execute(ctx context.Context, sg *StoredGraph, alg string, pr planner.RunParams) (*QueryResult, error)
}

// retryHint estimates how much longer the cancelled run needed:
// elapsed × remaining/done, floored at 1ms.
func retryHint(elapsed time.Duration, done, planned int) int64 {
	if done <= 0 || planned <= done {
		return 1
	}
	return max(1, elapsed.Milliseconds()*int64(planned-done)/int64(done))
}

// cacheKey builds the canonical identity of a query: graph name, version
// and content fingerprint, algorithm, machine size, and every normalized
// tuning parameter. Two requests with equal keys are the same
// computation — safe to coalesce and to serve from cache.
func cacheKey(sg *StoredGraph, alg string, p int, pr planner.RunParams) string {
	return fmt.Sprintf("%s@%d#%016x|%s|p%d|s%d|e%g|sp%g|mt%d|t%d|pl%t",
		sg.Name, sg.Version, sg.Snap.Fingerprint(), alg, p,
		pr.Seed, pr.Epsilon, pr.SuccessProb, pr.MaxTrials, pr.Trials, pr.Pipelined)
}

// sideVertices converts a cut side to the vertex list of its smaller
// shore, the compact wire form.
func sideVertices(side []bool) []int32 {
	in := 0
	for _, s := range side {
		if s {
			in++
		}
	}
	flip := in > len(side)-in
	out := make([]int32, 0, min(in, len(side)-in))
	for v, s := range side {
		if s != flip {
			out = append(out, int32(v))
		}
	}
	return out
}
