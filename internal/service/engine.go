package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/bsp"
	"repro/internal/faults"
	"repro/internal/mincut"
	"repro/internal/perfmodel"
	"repro/internal/planner"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config tunes an Engine. Zero values select the defaults noted on each
// field.
type Config struct {
	// Workers is the number of kernel-executing workers (default: CPUs,
	// max 4). Each worker runs one BSP machine at a time, so worker
	// count × MaxProcessors bounds total goroutine fan-out.
	Workers int
	// QueueBound is the admission-control queue capacity (default 64).
	// A query arriving to a full queue is rejected with ErrOverloaded;
	// the worker pool never grows.
	QueueBound int
	// CacheCapacity is the LRU result cache size in entries (default 128;
	// negative disables caching).
	CacheCapacity int
	// MaxProcessors caps the per-query BSP machine size (default: CPUs,
	// max 16).
	MaxProcessors int
	// DefaultTimeout bounds a query's queueing plus result wait when the
	// request does not set one (default 60s). MaxTimeout clamps
	// per-request overrides (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// BeforeExec, when non-nil, runs on the worker goroutine immediately
	// before each kernel execution. It exists for tests, which use it to
	// hold kernels at a gate and observe coalescing and admission
	// control deterministically. Leave nil in production.
	BeforeExec func(alg string)
	// Faults, when non-nil and enabled, injects deterministic faults
	// (panics, stalls, cancellations) into every kernel execution. Off by
	// default; see internal/faults.
	Faults *faults.Registry
	// DisablePlans turns off snapshot-resident query plans: every query
	// runs the full cold path (the CC labelling, the edge gather, and the
	// total-weight AllReduce). Plans are on by default; the switch exists
	// for A/B benchmarking and for tests that target the cold path's exact
	// superstep structure.
	DisablePlans bool
	// Executor, when non-nil, replaces in-process kernel execution: every
	// query runs through it at its fixed machine size (the shard tier
	// plugs its distributed TCP machine in here). Cache, coalescing,
	// admission control, and the retry policy are unchanged.
	Executor Executor
	// Planner selects the cost-model query planner mode: "off" (default
	// and any unparseable value) runs every query's kernel at the
	// heuristic p; "static" sizes the machine with models fitted once at
	// startup. Ignored when Executor is set (a distributed machine's size
	// is fixed by its worker group).
	Planner string
	// PlannerModels, when non-nil, installs these fitted model constants
	// instead of running the startup calibration suite — deterministic
	// tests and benchmarks pin decisions with it.
	PlannerModels map[string]*perfmodel.Model
}

func (cfg *Config) defaults() {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
		if cfg.Workers > 4 {
			cfg.Workers = 4
		}
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 64
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 128
	} else if cfg.CacheCapacity < 0 {
		cfg.CacheCapacity = 0
	}
	if cfg.MaxProcessors <= 0 {
		cfg.MaxProcessors = runtime.NumCPU()
		if cfg.MaxProcessors > 16 {
			cfg.MaxProcessors = 16
		}
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
}

// call is one scheduled kernel execution plus everyone waiting on it:
// the leader that enqueued it and any coalesced followers.
type call struct {
	key string
	alg string
	Resolved

	// ctx carries the leader's deadline but not the leader's cancellation:
	// the call outlives any single waiter until either the deadline fires
	// or the last waiter abandons it (refs hits zero), at which point
	// cancel() propagates into the BSP machine via RunCtx.
	ctx    context.Context
	cancel context.CancelFunc

	done chan struct{} // closed when res/err are final
	res  *QueryResult
	err  error

	refs    int // waiters (leader included) still interested (guarded by engine mu)
	waiters int // coalesced followers currently waiting (guarded by engine mu)
}

// Reply is the engine's answer to one query.
type Reply struct {
	// Outcome is a trace.Outcome* constant: executed, cache_hit, or
	// coalesced.
	Outcome string
	Result  *QueryResult
	Latency time.Duration
}

// Engine is the query engine: registry + cache + bounded scheduler with
// coalescing, instrumented through a trace.Collector.
type Engine struct {
	cfg       Config
	reg       *Registry
	cache     *lruCache
	collector *trace.Collector
	planner   *planner.Planner // nil when planning is off
	retry     *backoff.Jitter  // the delay before a transient fault's one retry
	started   time.Time

	mu       sync.Mutex
	inflight map[string]*call
	closed   bool

	jobs chan *call
	wg   sync.WaitGroup
}

// NewEngine starts an engine with cfg's worker pool running.
func NewEngine(cfg Config) *Engine {
	cfg.defaults()
	e := &Engine{
		cfg:       cfg,
		reg:       NewRegistry(),
		cache:     newLRUCache(cfg.CacheCapacity),
		collector: trace.NewCollector(),
		retry:     backoff.New(retryDelayCap, retryDelayCap, 1),
		started:   time.Now(),
		inflight:  make(map[string]*call),
		jobs:      make(chan *call, cfg.QueueBound),
	}
	if mode, err := planner.ParseMode(cfg.Planner); err == nil && mode != planner.ModeOff && cfg.Executor == nil {
		pl := planner.New(mode)
		if cfg.PlannerModels != nil {
			for name, m := range cfg.PlannerModels {
				pl.SetModel(name, m)
			}
		} else if err := pl.CalibrateBuiltins(cfg.MaxProcessors); err != nil {
			// Partial calibration is usable: decisions for an
			// uncalibrated kernel fall back to the heuristic p (counted);
			// the error itself is surfaced in the stats snapshot, never
			// swallowed.
			pl.SetCalibrationError(err)
		}
		e.planner = pl
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Registry exposes the engine's graph registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Collector exposes the engine's metrics collector.
func (e *Engine) Collector() *trace.Collector { return e.collector }

// Planner exposes the engine's query planner (nil when planning is off).
func (e *Engine) Planner() *planner.Planner { return e.planner }

// Close shuts the engine down: new queries fail with ErrClosed, queued
// jobs drain, workers exit. It blocks until the pool is idle.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.mu.Unlock()
	e.wg.Wait()
}

// worker executes queued calls one at a time. Admission control is
// two-sided: the bounded queue sheds load at submission, and a job whose
// deadline passed (or whose waiters all left) while queued is dropped
// here without running — stale work must not occupy a worker.
func (e *Engine) worker() {
	defer e.wg.Done()
	for c := range e.jobs {
		e.serve(c)
	}
}

// retryDelayCap bounds the jittered sleep before a transient fault's one
// retry (Engine.retry draws it uniformly from [0, retryDelayCap]).
const retryDelayCap = 10 * time.Millisecond

// serve runs one call to completion: execute, absorb a single transient
// fault with a jittered retry, classify the final error, and publish.
// Cancelled, faulted, and degraded results are never cached.
func (e *Engine) serve(c *call) {
	defer c.cancel()
	if err := c.ctx.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			c.err = fmt.Errorf("%w: abandoned while queued", ErrCancelled)
		} else {
			c.err = fmt.Errorf("%w: expired after queueing", ErrDeadline)
		}
	} else {
		c.res, c.err = e.attempt(c)
		if c.err != nil && !errors.Is(c.err, bsp.ErrCancelled) && c.ctx.Err() == nil {
			// One bounded retry for transient faults (a panicked processor,
			// an injected failure). The jittered backoff decorrelates
			// retries of coalesced call groups that faulted together.
			e.collector.Observe(trace.QuerySample{Algorithm: c.alg, Outcome: trace.OutcomeRetried})
			time.Sleep(e.retry.Delay(0))
			if c.ctx.Err() == nil {
				c.res, c.err = e.attempt(c)
			}
		}
		if c.err != nil {
			switch {
			case errors.Is(c.err, bsp.ErrCancelled):
				c.err = fmt.Errorf("%w: %w", ErrCancelled, c.err)
			case errors.Is(c.err, transport.ErrPeerLost):
				// A dead peer connection is a fabric problem, not a kernel
				// problem: distinct sentinel, same client contract as a fault
				// (503 + Retry-After, never cached).
				c.err = fmt.Errorf("%w: %w", ErrTransport, c.err)
			default:
				c.err = fmt.Errorf("%w: %w", ErrFaulted, c.err)
			}
		}
	}
	if c.err == nil && c.dec != nil {
		c.res.Kernel.PredictedMs = c.dec.PredictedMs
	}
	if c.err == nil && !c.res.Degraded {
		e.cache.put(c.key, c.res)
	}
	e.mu.Lock()
	if e.inflight[c.key] == c {
		delete(e.inflight, c.key)
	}
	e.mu.Unlock()
	close(c.done)
}

func (e *Engine) attempt(c *call) (*QueryResult, error) {
	if e.cfg.BeforeExec != nil {
		e.cfg.BeforeExec(c.alg)
	}
	if e.cfg.Executor != nil {
		return e.cfg.Executor.Execute(c.ctx, c.Graph, c.alg, c.Params)
	}
	return Run(c.ctx, c.Graph, c.alg, c.Params,
		planner.Shape{P: c.P, Plan: e.planFor(c.Graph, c.P), Faults: e.cfg.Faults})
}

// Resolved is a query after request resolution: the graph version it
// reads, its normalized parameters, and the machine size its algorithm's
// kernel runs at.
type Resolved struct {
	Graph  *StoredGraph
	Params planner.RunParams
	P      int
	// dec is the planner decision behind P (nil when the planner is off
	// or the kernel has no cost model); its prediction goes into the
	// reply's KernelStats.
	dec *planner.Decision
}

// Resolve turns a request into its Resolved form without scheduling
// anything: parameter validation, registry lookup, then decide. Query
// starts here, and so does the shard worker's /v1/local, so a request
// the leader path rejects is rejected identically on failover.
func (e *Engine) Resolve(req *QueryRequest) (Resolved, error) {
	pr, err := normalize(req)
	if err != nil {
		return Resolved{}, err
	}
	sg, err := e.reg.Get(req.Graph)
	if err != nil {
		return Resolved{}, err
	}
	return e.decide(req, sg, pr), nil
}

// decide resolves the machine size a query's kernel runs at: an
// Executor's fixed worker group, a planner decision, or the heuristic p
// — in that order.
func (e *Engine) decide(req *QueryRequest, sg *StoredGraph, pr planner.RunParams) Resolved {
	rs := Resolved{Graph: sg, Params: pr, P: planner.HeuristicP(sg.Snap.M(), req.Processors, e.cfg.MaxProcessors)}
	if e.cfg.Executor != nil {
		// A distributed machine's size is its worker-group size; per-query
		// shapes don't apply.
		rs.P = e.cfg.Executor.MachineP()
		return rs
	}
	if e.planner == nil || planner.For(req.Algorithm).Cost == nil {
		return rs
	}
	dec := e.planner.Choose(req.Algorithm, planner.StatsOf(sg.Snap), plannerParams(req.Algorithm, sg, pr),
		req.Processors, e.cfg.MaxProcessors)
	// Choose always answers — at worst what rs already holds, the
	// heuristic p.
	rs.dec, rs.P = &dec, dec.P
	return rs
}

// plannerParams resolves the per-query knobs the cost formulas consume:
// epsilon as normalized, and — for mincut — the trial count derived from
// (n, m, success probability) capped by the request: what mincut.Parallel
// runs when its certificate fails (none when it holds, which the
// statistics here cannot foresee).
func plannerParams(alg string, sg *StoredGraph, pr planner.RunParams) planner.Params {
	par := planner.Params{Epsilon: pr.Epsilon}
	if alg == AlgMinCut {
		t := mincut.Trials(sg.Snap.N(), sg.Snap.M(), pr.SuccessProb)
		if pr.MaxTrials > 0 && t > pr.MaxTrials {
			t = pr.MaxTrials
		}
		par.Trials = t
	}
	return par
}

// Query answers one analytics request: cache lookup, coalescing with an
// identical in-flight query, or a scheduled kernel execution — in that
// order. It blocks until a result, the request deadline, or rejection.
func (e *Engine) Query(ctx context.Context, req QueryRequest) (*Reply, error) {
	start := time.Now()
	rs, err := e.Resolve(&req)
	if err != nil {
		e.observeFailure(req.Algorithm, trace.OutcomeError, start)
		return nil, err
	}
	key := cacheKey(rs.Graph, req.Algorithm, rs.P, rs.Params)

	timeout := e.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > e.cfg.MaxTimeout {
			timeout = e.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	deadline, _ := ctx.Deadline()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	// ① Coalesce onto an identical in-flight query: a thundering herd of
	// equal requests computes once. Checked before the cache so
	// followers never inflate the miss counter.
	if c, ok := e.inflight[key]; ok {
		c.refs++
		c.waiters++
		e.mu.Unlock()
		return e.wait(ctx, c, start, trace.OutcomeCoalesced, true)
	}
	// ② Cache.
	if !req.NoCache {
		if res := e.cache.get(key); res != nil {
			e.mu.Unlock()
			lat := time.Since(start)
			e.collector.Observe(trace.QuerySample{
				Algorithm: req.Algorithm,
				Outcome:   trace.OutcomeCacheHit,
				Latency:   lat,
				Kernel:    &res.Kernel,
			})
			return &Reply{Outcome: trace.OutcomeCacheHit, Result: res, Latency: lat}, nil
		}
	}
	// ③ Admission control: become the leader if the queue has room. The
	// call context inherits the leader's deadline but not its
	// cancellation (followers with later personal deadlines may still be
	// waiting after the leader gives up); refs hitting zero cancels it.
	callCtx, callCancel := context.WithDeadline(context.WithoutCancel(ctx), deadline)
	c := &call{
		key: key, alg: req.Algorithm, Resolved: rs,
		ctx: callCtx, cancel: callCancel,
		done: make(chan struct{}), refs: 1,
	}
	depth := len(e.jobs)
	select {
	case e.jobs <- c:
		e.inflight[key] = c
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		callCancel()
		e.collector.Observe(trace.QuerySample{
			Algorithm:  req.Algorithm,
			Outcome:    trace.OutcomeRejected,
			QueueDepth: depth,
		})
		return nil, fmt.Errorf("%w: queue full (%d queued, %d workers)",
			ErrOverloaded, depth, e.cfg.Workers)
	}
	return e.wait(ctx, c, start, trace.OutcomeExecuted, false)
}

// cancelGrace bounds how long a leader whose deadline fired keeps
// waiting for the call to publish: the call context shares the leader's
// deadline, so at this point the BSP machine is already being cancelled
// and unwinds within one superstep — usually milliseconds — carrying
// the degraded best-so-far answer the leader came for.
const cancelGrace = time.Second

// wait blocks for a call's completion or the caller's deadline and
// records the sample. Every waiter holds one ref; the last one out
// cancels the call (stopping a kernel nobody wants) and clears the
// in-flight entry so later identical queries start fresh.
func (e *Engine) wait(ctx context.Context, c *call, start time.Time, outcome string, follower bool) (*Reply, error) {
	defer func() {
		e.mu.Lock()
		c.refs--
		if follower {
			c.waiters--
		}
		last := c.refs == 0
		if last && e.inflight[c.key] == c {
			delete(e.inflight, c.key)
		}
		e.mu.Unlock()
		if last {
			c.cancel()
		}
	}()
	finished := false
	select {
	case <-c.done:
		finished = true
	case <-ctx.Done():
		if !follower {
			// The leader's deadline is the call's deadline: the kernel is
			// unwinding right now. Hold on briefly for the degraded
			// best-so-far result instead of discarding it. Followers skip
			// this — their personal deadline says nothing about the call.
			grace := time.NewTimer(cancelGrace)
			select {
			case <-c.done:
				finished = true
			case <-grace.C:
			}
			grace.Stop()
		}
	}
	if !finished {
		if errors.Is(ctx.Err(), context.Canceled) {
			e.observeFailure(c.alg, trace.OutcomeCancelled, start)
			return nil, fmt.Errorf("%w: %s on %q: caller gone", ErrCancelled, c.alg, c.Graph.Name)
		}
		e.observeFailure(c.alg, trace.OutcomeExpired, start)
		return nil, fmt.Errorf("%w: %s on %q", ErrDeadline, c.alg, c.Graph.Name)
	}
	lat := time.Since(start)
	if c.err != nil {
		// The resolving outcome surfaces identically to every waiter.
		out := trace.OutcomeError
		switch {
		case errors.Is(c.err, ErrDeadline):
			out = trace.OutcomeExpired
		case errors.Is(c.err, ErrCancelled):
			out = trace.OutcomeCancelled
		case errors.Is(c.err, ErrTransport):
			out = trace.OutcomeTransport
		case errors.Is(c.err, ErrFaulted):
			out = trace.OutcomeFaulted
		}
		e.observeFailure(c.alg, out, start)
		return nil, c.err
	}
	if c.res.Degraded && !follower {
		// The leader owns the degraded resolution; followers stay
		// "coalesced" (the result still carries Degraded for them).
		outcome = trace.OutcomeDegraded
	}
	sample := trace.QuerySample{
		Algorithm:  c.alg,
		Outcome:    outcome,
		Latency:    lat,
		QueueDepth: len(e.jobs),
	}
	if outcome == trace.OutcomeExecuted {
		sample.Kernel = &c.res.Kernel
		sample.PlannerFallback = c.dec != nil && c.dec.Fallback
	}
	e.collector.Observe(sample)
	return &Reply{Outcome: outcome, Result: c.res, Latency: lat}, nil
}

func (e *Engine) observeFailure(alg, outcome string, start time.Time) {
	if !knownAlgorithm(alg) {
		alg = algUnknown // a request that failed resolution may name anything
	}
	e.collector.Observe(trace.QuerySample{
		Algorithm: alg,
		Outcome:   outcome,
		Latency:   time.Since(start),
	})
}

// EngineStats is the live state served by /v1/stats: pool gauges, cache
// counters, and the collector's per-algorithm aggregates.
type EngineStats struct {
	UptimeMs         float64                 `json:"uptime_ms"`
	Graphs           int                     `json:"graphs"`
	Workers          int                     `json:"workers"`
	QueueDepth       int                     `json:"queue_depth"`
	QueueCapacity    int                     `json:"queue_capacity"`
	InflightCalls    int                     `json:"inflight_calls"`
	CoalescedWaiters int                     `json:"coalesced_waiters"`
	MaxProcessors    int                     `json:"max_processors"`
	Plans            int                     `json:"plans"`
	Cache            CacheStats              `json:"cache"`
	Queries          trace.CollectorSnapshot `json:"queries"`
	// Planner is the query planner's counters and fitted model constants;
	// absent when planning is off.
	Planner *planner.Snapshot `json:"planner,omitempty"`
	// Tenants is the per-tenant quota state when multi-tenant auth is
	// configured; the HTTP layer fills it in (the engine itself is
	// tenant-agnostic).
	Tenants []tenant.TenantSnapshot `json:"tenants,omitempty"`
	// Fleet is the shard worker's mesh liveness and catch-up state when
	// the process is part of a worker group; the HTTP layer fills it in
	// (the engine itself is fleet-agnostic).
	Fleet interface{} `json:"fleet,omitempty"`
}

// Stats snapshots the engine.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	inflight := len(e.inflight)
	waiters := 0
	for _, c := range e.inflight {
		waiters += c.waiters
	}
	e.mu.Unlock()
	var plSnap *planner.Snapshot
	if e.planner != nil {
		plSnap = e.planner.Snapshot()
	}
	return EngineStats{
		UptimeMs:         ms(time.Since(e.started)),
		Graphs:           e.reg.Len(),
		Workers:          e.cfg.Workers,
		QueueDepth:       len(e.jobs),
		QueueCapacity:    e.cfg.QueueBound,
		InflightCalls:    inflight,
		CoalescedWaiters: waiters,
		MaxProcessors:    e.cfg.MaxProcessors,
		Plans:            e.reg.PlanCount(),
		Cache:            e.cache.stats(),
		Queries:          e.collector.Snapshot(),
		Planner:          plSnap,
	}
}
