package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Frontend routes the public API across shards: graph uploads replicate
// to every worker of the owning shard (each rank process needs the full
// snapshot to slice its block), queries go to the owning shard's
// leader, and stats merge across the whole fleet.
//
// Self-healing (DESIGN.md §4i): transport-level retries back off
// exponentially with full jitter; a per-leader circuit breaker fails
// fast once a leader looks dead; cc queries fail over to a replica
// rank's /v1/local when the leader is open or erroring.
type Frontend struct {
	ring *Ring
	// shards[i] lists shard i's worker base URLs in rank order;
	// shards[i][0] is the leader.
	shards   [][]string
	client   *http.Client
	attempts int
	backoff  *backoff.Jitter
	// breakers[i] guards shard i's leader.
	breakers []*breaker
	tenants  *tenant.Registry

	retries   atomic.Uint64 // transport-level retry sleeps taken
	failovers atomic.Uint64 // queries answered by a replica's /v1/local
}

// Transport-level retries sleep uniform [0, min(cap, base·2^k)] before
// attempt k+1, for at most frontendAttempts tries per worker request.
// frontendBreakerThreshold consecutive leader failures open a leader's
// breaker, which half-opens after frontendBreakerCooldown.
const (
	retryBackoffBase         = 25 * time.Millisecond
	retryBackoffCap          = time.Second
	frontendAttempts         = 3
	frontendBreakerThreshold = 3
	frontendBreakerCooldown  = time.Second
)

// SetTenants attaches a tenant registry so the merged /v1/stats view
// carries the fleet-wide quota state. Quota enforcement itself happens
// in service.TenantMiddleware wrapping Handler(); the frontend only
// reports.
func (f *Frontend) SetTenants(reg *tenant.Registry) { f.tenants = reg }

// NewFrontend builds a frontend over the given worker fleet.
func NewFrontend(shards [][]string) (*Frontend, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: frontend needs at least one shard")
	}
	for i, ws := range shards {
		if len(ws) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no workers", i)
		}
	}
	ring, err := NewRing(len(shards), 0)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		ring:     ring,
		shards:   shards,
		client:   &http.Client{Timeout: 5 * time.Minute},
		attempts: frontendAttempts,
		backoff:  backoff.New(retryBackoffBase, retryBackoffCap, int64(len(shards))),
		breakers: make([]*breaker, len(shards)),
	}
	for i := range f.breakers {
		f.breakers[i] = newBreaker(frontendBreakerThreshold, frontendBreakerCooldown)
	}
	return f, nil
}

// Handler returns the frontend HTTP API — the same shape as a single
// worker's, so clients need not know whether they talk to one process
// or a fleet.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/graphs", f.handleUpload)
	mux.HandleFunc("/v1/query", f.handleQuery)
	mux.HandleFunc("/v1/stats", f.handleStats)
	mux.HandleFunc("/metrics", f.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// The frontend is stateless; it is ready as soon as it serves.
		// Worker readiness is each worker's own /readyz.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// do issues one request with retry-on-connect-failure: only transport
// errors (dial refused, connection reset before a response) retry —
// with capped exponential backoff and full jitter, so a fleet of
// clients stampeding a just-restarted worker decorrelates instead of
// re-synchronizing. Any HTTP response, success or failure, is final.
// body is re-readable by construction (a byte slice), so retries are
// safe.
func (f *Frontend) do(method, url string, body []byte, contentType string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < f.attempts; attempt++ {
		if attempt > 0 {
			f.retries.Add(1)
			time.Sleep(f.backoff.Delay(attempt - 1))
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := f.client.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("shard: %s %s failed after %d attempts: %w", method, url, f.attempts, lastErr)
}

// relay copies a worker's response through to the client, preserving
// the status and the retry contract (Retry-After).
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func writeFrontendError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// maxUploadBytes mirrors the worker-side bound.
const maxUploadBytes = 64 << 20

// bodyStatus is the status for a failed request-body read: 413 when the
// body overran its MaxBytesReader bound, as the worker's own endpoints
// answer, and fallback otherwise.
func bodyStatus(err error, fallback int) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return fallback
}

// handleUpload places the graph by name and replicates the body to
// every worker of the owning shard: a distributed run slices the frozen
// edge array by rank, so each rank process must hold the full snapshot.
// All-or-nothing isn't required — a partially replicated graph fails
// closed at query time (a peer without it aborts the run it is started
// on).
func (f *Frontend) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFrontendError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		// Workers auto-generate names independently, which would scatter
		// one logical graph across per-process identities; the frontend
		// requires the name to keep placement well-defined.
		writeFrontendError(w, http.StatusBadRequest, fmt.Errorf("shard: uploads require an explicit ?name="))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		writeFrontendError(w, bodyStatus(err, http.StatusInternalServerError), err)
		return
	}
	shard := f.ring.Shard(name)
	q := r.URL.Query().Encode()
	var last *http.Response
	for _, worker := range f.shards[shard] {
		resp, err := f.do(http.MethodPost, worker+"/v1/graphs?"+q, body, r.Header.Get("Content-Type"))
		if err != nil {
			if last != nil {
				last.Body.Close()
			}
			writeFrontendError(w, http.StatusServiceUnavailable, err)
			return
		}
		if resp.StatusCode != http.StatusCreated {
			if last != nil {
				last.Body.Close()
			}
			relay(w, resp)
			return
		}
		if last != nil {
			last.Body.Close()
		}
		last = resp
	}
	w.Header().Set("X-Shard", fmt.Sprint(shard))
	relay(w, last)
}

// handleQuery routes a query to the owning shard's leader, guarded by
// that leader's circuit breaker. When the leader is unreachable, open,
// or failing, cc queries fail over to a replica rank's local copy;
// everything else resolves 503 + Retry-After (never cached — the
// engine's contract for transport failures holds end to end).
func (f *Frontend) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFrontendError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeFrontendError(w, bodyStatus(err, http.StatusBadRequest), err)
		return
	}
	var peek struct {
		Graph     string `json:"graph"`
		Algorithm string `json:"algorithm"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || peek.Graph == "" {
		writeFrontendError(w, http.StatusBadRequest, fmt.Errorf("shard: query body needs a graph name"))
		return
	}
	shard := f.ring.Shard(peek.Graph)
	w.Header().Set("X-Shard", fmt.Sprint(shard))
	br := f.breakers[shard]
	canFailover := peek.Algorithm == service.AlgCC && len(f.shards[shard]) > 1

	if !br.allow(time.Now()) {
		if canFailover {
			if resp := f.failover(shard, body); resp != nil {
				w.Header().Set("X-Failover", "1")
				relay(w, resp)
				return
			}
		}
		writeFrontendError(w, http.StatusServiceUnavailable,
			fmt.Errorf("shard: shard %d leader circuit open", shard))
		return
	}

	resp, err := f.do(http.MethodPost, f.shards[shard][0]+"/v1/query", body, "application/json")
	br.record(err == nil && resp.StatusCode < http.StatusInternalServerError, time.Now())
	if err != nil {
		if canFailover {
			if fresp := f.failover(shard, body); fresp != nil {
				w.Header().Set("X-Failover", "1")
				relay(w, fresp)
				return
			}
		}
		writeFrontendError(w, http.StatusServiceUnavailable, err)
		return
	}
	if resp.StatusCode >= http.StatusInternalServerError && canFailover {
		if fresp := f.failover(shard, body); fresp != nil {
			resp.Body.Close()
			w.Header().Set("X-Failover", "1")
			relay(w, fresp)
			return
		}
	}
	relay(w, resp)
}

// failover asks each replica rank of the shard, in rank order, to
// answer the query from its own graph copy; nil when none could. A 400
// is an answer too: replicas resolve requests exactly as the leader
// does, so relaying it beats a 503 that invites a pointless retry.
func (f *Frontend) failover(shard int, body []byte) *http.Response {
	for _, replica := range f.shards[shard][1:] {
		resp, err := f.do(http.MethodPost, replica+"/v1/local", body, "application/json")
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			f.failovers.Add(1)
			return resp
		}
		if resp.StatusCode == http.StatusBadRequest {
			return resp
		}
		resp.Body.Close()
	}
	return nil
}

// WorkerStats is one worker's contribution to the merged stats view.
type WorkerStats struct {
	URL   string               `json:"url"`
	Error string               `json:"error,omitempty"`
	Stats *service.EngineStats `json:"stats,omitempty"`
}

// ShardStats groups one shard's workers.
type ShardStats struct {
	Shard   int           `json:"shard"`
	Workers []WorkerStats `json:"workers"`
}

// FrontendStats is the merged /v1/stats response: the full per-worker
// detail plus fleet totals summed over shard leaders (queries flow
// through leaders only, so leader totals are the fleet totals; summing
// every rank would double-count the replicated registries).
type FrontendStats struct {
	Shards             []ShardStats                    `json:"shards"`
	Graphs             int                             `json:"graphs"`
	Queries            uint64                          `json:"queries"`
	KernelExecutions   uint64                          `json:"kernel_executions"`
	CacheHits          uint64                          `json:"cache_hits"`
	TransportLost      uint64                          `json:"transport_lost"`
	WireBytes          uint64                          `json:"wire_bytes"`
	Transports         map[string]trace.TransportStats `json:"transports,omitempty"`
	UnreachableWorkers int                             `json:"unreachable_workers"`
	Tenants            []tenant.TenantSnapshot         `json:"tenants,omitempty"`
	Fleet              FrontendFleet                   `json:"fleet"`
}

// BreakerStatus is one shard leader's circuit breaker state.
type BreakerStatus struct {
	Shard    int    `json:"shard"`
	Leader   string `json:"leader"`
	State    string `json:"state"` // closed | half_open | open
	Failures int    `json:"failures"`
}

// FrontendFleet is the frontend's own resilience state: breaker
// positions and the retry/failover counters.
type FrontendFleet struct {
	Breakers  []BreakerStatus `json:"breakers"`
	Retries   uint64          `json:"retries"`
	Failovers uint64          `json:"failovers"`
}

func (f *Frontend) fleetStats() FrontendFleet {
	ff := FrontendFleet{
		Breakers:  make([]BreakerStatus, len(f.breakers)),
		Retries:   f.retries.Load(),
		Failovers: f.failovers.Load(),
	}
	for i, br := range f.breakers {
		state, failures := br.snapshot()
		ff.Breakers[i] = BreakerStatus{
			Shard:    i,
			Leader:   f.shards[i][0],
			State:    breakerStateName(state),
			Failures: failures,
		}
	}
	return ff
}

// handleMetrics exposes the frontend's resilience counters in
// Prometheus text form (the per-worker camc_* families live on each
// worker's own /metrics).
func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeFrontendError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP camc_breaker_state Circuit breaker per shard leader (0=closed, 1=half-open, 2=open).\n# TYPE camc_breaker_state gauge\n")
	for i, br := range f.breakers {
		state, _ := br.snapshot()
		fmt.Fprintf(&b, "camc_breaker_state{shard=\"%d\"} %d\n", i, state)
	}
	fmt.Fprintf(&b, "# HELP camc_failovers_total Queries answered by a replica rank instead of the shard leader.\n# TYPE camc_failovers_total counter\ncamc_failovers_total %d\n", f.failovers.Load())
	fmt.Fprintf(&b, "# HELP camc_frontend_retries_total Transport-level retries against workers.\n# TYPE camc_frontend_retries_total counter\ncamc_frontend_retries_total %d\n", f.retries.Load())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// workerStats fetches one worker's /v1/stats.
func (f *Frontend) workerStats(worker string) (*service.EngineStats, error) {
	resp, err := f.do(http.MethodGet, worker+"/v1/stats", nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	st := new(service.EngineStats)
	return st, json.NewDecoder(resp.Body).Decode(st)
}

// addLeader folds one shard leader's totals into the fleet view.
func (out *FrontendStats) addLeader(st *service.EngineStats) {
	out.Graphs += st.Graphs
	out.Queries += st.Queries.Totals.Queries
	out.KernelExecutions += st.Queries.Totals.KernelExecutions
	out.CacheHits += st.Queries.Totals.CacheHits
	out.TransportLost += st.Queries.Totals.TransportLost
	out.WireBytes += st.Queries.Totals.WireBytes
	for kind, ts := range st.Queries.Transports {
		if out.Transports == nil {
			out.Transports = make(map[string]trace.TransportStats)
		}
		agg := out.Transports[kind]
		agg.Add(ts)
		out.Transports[kind] = agg
	}
}

func (f *Frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	out := FrontendStats{Shards: make([]ShardStats, len(f.shards)), Fleet: f.fleetStats()}
	if f.tenants != nil {
		out.Tenants = f.tenants.Snapshot()
	}
	for si, workers := range f.shards {
		out.Shards[si] = ShardStats{Shard: si, Workers: make([]WorkerStats, len(workers))}
		for wi, worker := range workers {
			ws := &out.Shards[si].Workers[wi]
			ws.URL = worker
			st, err := f.workerStats(worker)
			if err != nil {
				ws.Error = err.Error()
				out.UnreachableWorkers++
				continue
			}
			ws.Stats = st
			if wi == 0 {
				out.addLeader(st)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
