package trace

import (
	"sync"
	"time"
)

// Query outcomes recorded by the Collector. A query is counted exactly
// once, under the outcome that resolved it.
const (
	OutcomeExecuted  = "executed"       // a kernel ran for this query
	OutcomeCacheHit  = "cache_hit"      // served from the result cache
	OutcomeCoalesced = "coalesced"      // piggybacked on an identical in-flight query
	OutcomeRejected  = "rejected"       // shed by admission control (queue full)
	OutcomeExpired   = "expired"        // deadline passed before a result was available
	OutcomeError     = "error"          // the kernel or the request failed
	OutcomeCancelled = "cancelled"      // the kernel was cancelled mid-run, no partial answer
	OutcomeDegraded  = "degraded"       // cancelled mid-run but a best-so-far answer was served
	OutcomeFaulted   = "faulted"        // the kernel faulted and the bounded retry failed too
	OutcomeTransport = "transport_lost" // a peer connection died mid-run and the retry failed too

	// OutcomeRetried is an *event*, not a resolution: it marks one
	// transient kernel fault absorbed by the retry policy. Retried
	// samples increment only the Retried counter — the query itself is
	// still counted exactly once, under whatever outcome resolves it.
	OutcomeRetried = "retried"
)

// KernelStats is the BSP cost profile of one kernel execution, lifted
// from bsp.Stats into a JSON-ready form. It is the one record a query's
// cost travels in: the serving layer puts it in the reply as is and hands
// the collector a pointer to it, and every aggregate below is folded from
// it by the counter table.
type KernelStats struct {
	P            int     `json:"p"`
	Supersteps   int     `json:"supersteps"`
	CommVolume   uint64  `json:"comm_volume"`
	MaxHRelation uint64  `json:"max_h_relation"`
	TimeMs       float64 `json:"time_ms"`
	CommTimeMs   float64 `json:"comm_time_ms"`
	MaxOps       uint64  `json:"max_ops"`
	// AvoidedCollectives / AvoidedCommVolume report what the run skipped
	// by consuming snapshot-resident plan facts instead of communicating
	// — the explicit ledger entry that keeps warm-path accounting honest.
	// Zero on cold runs.
	AvoidedCollectives int    `json:"avoided_collectives"`
	AvoidedCommVolume  uint64 `json:"avoided_comm_volume"`
	// Transport labels the BSP fabric that carried the run ("local" or
	// "tcp"); WireBytes is the framed socket traffic it cost — zero for the
	// in-process fabric.
	Transport string `json:"transport,omitempty"`
	WireBytes uint64 `json:"wire_bytes,omitempty"`
	// WireRawBytes equals WireBytes: every payload crosses the wire
	// raw. It is kept only for the benchmark harness, which reads it to
	// decide whether a run moved socket bytes.
	WireRawBytes uint64 `json:"wire_raw_bytes,omitempty"`
	// Kernel names the kernel that produced the result, its algorithm's
	// one (planner.For). PredictedMs is the planner's predicted wall time
	// for this execution (0 when unplanned) — compare with TimeMs for the
	// model's accuracy on this query.
	Kernel      string  `json:"kernel,omitempty"`
	PredictedMs float64 `json:"predicted_ms,omitempty"`
}

// QuerySample is one finished (or shed) query as seen by the serving
// layer: what was asked, how it resolved, and the cost profile behind
// the answer.
type QuerySample struct {
	Algorithm  string
	Outcome    string // one of the Outcome constants
	Latency    time.Duration
	QueueDepth int // scheduler queue depth observed at admission
	// Kernel is the profile of the execution behind the answer, nil when
	// there is none. Its costs are counted once, under OutcomeExecuted;
	// a cache hit carries the stored profile so max_p still sees its P.
	Kernel *KernelStats
	// PlannerFallback marks a query the planner could not score (no
	// calibrated model for its kernel) and ran at the heuristic p.
	PlannerFallback bool
}

// OutcomeTable pairs every resolution label with the AlgoStats counter it
// bumps, in /metrics order. A label not listed here counts as an error.
// (OutcomeRetried is an event, not a resolution, and has no row.)
var OutcomeTable = []struct {
	Label string
	Field func(*AlgoStats) *uint64
}{
	{OutcomeExecuted, func(a *AlgoStats) *uint64 { return &a.KernelExecutions }},
	{OutcomeCacheHit, func(a *AlgoStats) *uint64 { return &a.CacheHits }},
	{OutcomeCoalesced, func(a *AlgoStats) *uint64 { return &a.Coalesced }},
	{OutcomeRejected, func(a *AlgoStats) *uint64 { return &a.Rejected }},
	{OutcomeExpired, func(a *AlgoStats) *uint64 { return &a.Expired }},
	{OutcomeError, func(a *AlgoStats) *uint64 { return &a.Errors }},
	{OutcomeCancelled, func(a *AlgoStats) *uint64 { return &a.Cancelled }},
	{OutcomeDegraded, func(a *AlgoStats) *uint64 { return &a.Degraded }},
	{OutcomeFaulted, func(a *AlgoStats) *uint64 { return &a.Faulted }},
	{OutcomeTransport, func(a *AlgoStats) *uint64 { return &a.TransportLost }},
}

// Counter is one row of a counter table: a count every executed kernel
// adds to an aggregate of type T, declared once — the /metrics family
// that exports it ("" = served on /v1/stats only), the field that
// accumulates it, and what one execution's profile contributes.
type Counter[T any] struct {
	Family, Help string
	Field        func(*T) *uint64
	Of           func(*KernelStats) uint64
}

// fold adds one executed kernel's contributions to agg.
func fold[T any](rows []Counter[T], agg *T, k *KernelStats) {
	for i := range rows {
		*rows[i].Field(agg) += rows[i].Of(k)
	}
}

// The contributions more than one table row draws.
var (
	supersteps = func(k *KernelStats) uint64 { return uint64(k.Supersteps) }
	commVolume = func(k *KernelStats) uint64 { return k.CommVolume }
	wireBytes  = func(k *KernelStats) uint64 { return k.WireBytes }
)

// AlgoCounters and TransportCounters are the counter tables of the
// per-algorithm and per-fabric aggregates, in /metrics order. Observe,
// TransportStats.Add and service.WriteMetrics only walk them, so a new
// counter is one aggregate field (its json tag is the /v1/stats name)
// plus one row here; TestTablesComplete fails on a field without a row.
var AlgoCounters = []Counter[AlgoStats]{
	{"camc_supersteps_total", "BSP supersteps executed.", func(a *AlgoStats) *uint64 { return &a.Supersteps }, supersteps},
	{"camc_comm_volume_words_total", "BSP words communicated.", func(a *AlgoStats) *uint64 { return &a.CommVolume }, commVolume},
	{"camc_avoided_collectives_total", "Collectives skipped via snapshot-resident plans.", func(a *AlgoStats) *uint64 { return &a.AvoidedCollectives },
		func(k *KernelStats) uint64 { return uint64(k.AvoidedCollectives) }},
	{"camc_avoided_comm_volume_words_total", "Words not communicated thanks to plans.", func(a *AlgoStats) *uint64 { return &a.AvoidedCommVolume },
		func(k *KernelStats) uint64 { return k.AvoidedCommVolume }},
	{"", "", func(a *AlgoStats) *uint64 { return &a.WireBytes }, wireBytes},
}

var TransportCounters = []Counter[TransportStats]{
	{"camc_transport_kernel_executions_total", "Kernel executions per BSP fabric.", func(t *TransportStats) *uint64 { return &t.KernelExecutions },
		func(*KernelStats) uint64 { return 1 }},
	{"camc_transport_supersteps_total", "Supersteps per BSP fabric.", func(t *TransportStats) *uint64 { return &t.Supersteps }, supersteps},
	{"camc_transport_comm_volume_words_total", "Words communicated per BSP fabric.", func(t *TransportStats) *uint64 { return &t.CommVolume }, commVolume},
	{"camc_transport_wire_bytes_total", "Framed socket bytes per BSP fabric (0 for local).", func(t *TransportStats) *uint64 { return &t.WireBytes }, wireBytes},
}

// LatencyBuckets are the upper bounds, in seconds, of the collector's
// latency histogram — log-spaced from 0.5ms to 10s, Prometheus-style
// cumulative ("le") semantics with an implicit +Inf bucket at the end.
// The bounds are fixed so histograms merge trivially across scrapes,
// algorithms, and processes.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// AlgoStats aggregates the samples of one algorithm (or, for the
// collector's totals, of all of them). The struct is JSON-ready, so the
// service's stats endpoint can serve collector snapshots directly.
type AlgoStats struct {
	Queries            uint64  `json:"queries"`
	KernelExecutions   uint64  `json:"kernel_executions"`
	CacheHits          uint64  `json:"cache_hits"`
	Coalesced          uint64  `json:"coalesced"`
	Rejected           uint64  `json:"rejected"`
	Expired            uint64  `json:"expired"`
	Errors             uint64  `json:"errors"`
	Cancelled          uint64  `json:"cancelled"`
	Degraded           uint64  `json:"degraded"`
	Faulted            uint64  `json:"faulted"`
	TransportLost      uint64  `json:"transport_lost"`
	Retried            uint64  `json:"retried"`
	Supersteps         uint64  `json:"supersteps"`
	CommVolume         uint64  `json:"comm_volume"`
	AvoidedCollectives uint64  `json:"avoided_collectives"`
	AvoidedCommVolume  uint64  `json:"avoided_comm_volume"`
	WireBytes          uint64  `json:"wire_bytes"`
	TotalLatencyMs     float64 `json:"total_latency_ms"`
	MinLatencyMs       float64 `json:"min_latency_ms"`
	MaxLatencyMs       float64 `json:"max_latency_ms"`
	AvgLatencyMs       float64 `json:"avg_latency_ms"`
	MaxP               int     `json:"max_p"`
	// LatencyHistogram counts latency samples per LatencyBuckets bound
	// (non-cumulative; one extra slot for +Inf). Rejections are excluded,
	// matching the min/max/avg fields above.
	LatencyHistogram []uint64 `json:"latency_histogram,omitempty"`

	latencySamples uint64
}

func (a *AlgoStats) observe(s *QuerySample) {
	// A retried sample marks an absorbed transient fault, not a resolved
	// query: count the event and nothing else.
	if s.Outcome == OutcomeRetried {
		a.Retried++
		return
	}
	a.Queries++
	resolved := &a.Errors
	for i := range OutcomeTable {
		if OutcomeTable[i].Label == s.Outcome {
			resolved = OutcomeTable[i].Field(a)
			break
		}
	}
	*resolved++
	if k := s.Kernel; k != nil {
		if s.Outcome == OutcomeExecuted {
			fold(AlgoCounters, a, k)
		}
		if k.P > a.MaxP {
			a.MaxP = k.P
		}
	}
	// Rejections resolve before any work happens; their near-zero
	// latencies would only distort the latency profile.
	if s.Outcome == OutcomeRejected {
		return
	}
	ms := float64(s.Latency) / float64(time.Millisecond)
	if a.LatencyHistogram == nil {
		a.LatencyHistogram = make([]uint64, len(LatencyBuckets)+1)
	}
	sec := s.Latency.Seconds()
	slot := len(LatencyBuckets) // +Inf
	for i, ub := range LatencyBuckets {
		if sec <= ub {
			slot = i
			break
		}
	}
	a.LatencyHistogram[slot]++
	a.TotalLatencyMs += ms
	if a.latencySamples == 0 || ms < a.MinLatencyMs {
		a.MinLatencyMs = ms
	}
	if ms > a.MaxLatencyMs {
		a.MaxLatencyMs = ms
	}
	a.latencySamples++
	a.AvgLatencyMs = a.TotalLatencyMs / float64(a.latencySamples)
}

// KernelAgg aggregates the executions of one kernel: how often
// it ran, its measured kernel time, and the planner's predictions for it
// — the raw material of the planner's observable accuracy.
type KernelAgg struct {
	Executions       uint64  `json:"executions"`
	TotalKernelMs    float64 `json:"total_kernel_ms"`
	TotalPredictedMs float64 `json:"total_predicted_ms"`
}

// KernelFamilies are KernelAgg's /metrics families; Value reads one, in
// the family's unit (seconds).
var KernelFamilies = []struct {
	Family, Help string
	Value        func(*KernelAgg) float64
}{
	{"camc_kernel_executions_total", "Executions per kernel.", func(k *KernelAgg) float64 { return float64(k.Executions) }},
	{"camc_kernel_time_seconds_total", "Measured kernel time per kernel.", func(k *KernelAgg) float64 { return k.TotalKernelMs / 1e3 }},
	{"camc_kernel_predicted_seconds_total", "Planner-predicted time per kernel.", func(k *KernelAgg) float64 { return k.TotalPredictedMs / 1e3 }},
}

// TransportStats aggregates the kernel executions carried by one BSP
// fabric ("local", "tcp"). WireBytes stays zero for the in-process
// fabric, which is precisely the communication-avoidance claim the
// stats endpoint lets operators check.
type TransportStats struct {
	KernelExecutions uint64 `json:"kernel_executions"`
	Supersteps       uint64 `json:"supersteps"`
	CommVolume       uint64 `json:"comm_volume"`
	WireBytes        uint64 `json:"wire_bytes"`
}

// Add folds another process's aggregate for the same fabric into t.
func (t *TransportStats) Add(o TransportStats) {
	for _, c := range TransportCounters {
		*c.Field(t) += *c.Field(&o)
	}
}

// CollectorSnapshot is a point-in-time copy of a Collector's aggregates.
type CollectorSnapshot struct {
	Totals        AlgoStats                 `json:"totals"`
	Algorithms    map[string]AlgoStats      `json:"algorithms"`
	Transports    map[string]TransportStats `json:"transports,omitempty"`
	Kernels       map[string]KernelAgg      `json:"kernels,omitempty"`
	MaxQueueDepth int                       `json:"max_queue_depth"`
	// PlannerFallbacks counts executed queries the planner ran at the
	// heuristic p because it had no calibrated model to score with.
	PlannerFallbacks uint64 `json:"planner_fallbacks,omitempty"`
}

// Collector aggregates per-query metrics for a serving process. It is
// safe for concurrent use; Observe is cheap enough for the query hot
// path (a mutex and a dozen adds).
type Collector struct {
	mu               sync.Mutex
	totals           AlgoStats
	algos            map[string]*AlgoStats
	transports       map[string]*TransportStats
	kernels          map[string]*KernelAgg
	maxQueueDepth    int
	plannerFallbacks uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		algos:      make(map[string]*AlgoStats),
		transports: make(map[string]*TransportStats),
		kernels:    make(map[string]*KernelAgg),
	}
}

// entry returns the aggregate kept under label, creating it on first use.
func entry[T any](byLabel map[string]*T, label string) *T {
	agg := byLabel[label]
	if agg == nil {
		agg = new(T)
		byLabel[label] = agg
	}
	return agg
}

// Observe records one query sample.
func (c *Collector) Observe(s QuerySample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals.observe(&s)
	entry(c.algos, s.Algorithm).observe(&s)
	if k := s.Kernel; k != nil && s.Outcome == OutcomeExecuted {
		if k.Transport != "" {
			fold(TransportCounters, entry(c.transports, k.Transport), k)
		}
		if k.Kernel != "" {
			agg := entry(c.kernels, k.Kernel)
			agg.Executions++
			agg.TotalKernelMs += k.TimeMs
			agg.TotalPredictedMs += k.PredictedMs
		}
	}
	if s.PlannerFallback {
		c.plannerFallbacks++
	}
	if s.QueueDepth > c.maxQueueDepth {
		c.maxQueueDepth = s.QueueDepth
	}
}

// cloneAlgo copies one aggregate, detaching the histogram slice so the
// snapshot stays immutable while the collector keeps counting.
func cloneAlgo(a AlgoStats) AlgoStats {
	if a.LatencyHistogram != nil {
		a.LatencyHistogram = append([]uint64(nil), a.LatencyHistogram...)
	}
	return a
}

// Snapshot returns a copy of the current aggregates.
func (c *Collector) Snapshot() CollectorSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := CollectorSnapshot{
		Totals:           cloneAlgo(c.totals),
		Algorithms:       make(map[string]AlgoStats, len(c.algos)),
		MaxQueueDepth:    c.maxQueueDepth,
		PlannerFallbacks: c.plannerFallbacks,
	}
	for name, a := range c.algos {
		out.Algorithms[name] = cloneAlgo(*a)
	}
	if len(c.transports) > 0 {
		out.Transports = make(map[string]TransportStats, len(c.transports))
		for name, tr := range c.transports {
			out.Transports[name] = *tr
		}
	}
	if len(c.kernels) > 0 {
		out.Kernels = make(map[string]KernelAgg, len(c.kernels))
		for name, k := range c.kernels {
			out.Kernels[name] = *k
		}
	}
	return out
}
