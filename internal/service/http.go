package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/graph"
	"repro/internal/tenant"
)

// HandlerOptions tunes the HTTP layer beyond the engine defaults.
type HandlerOptions struct {
	// Tenants, when non-nil, turns on multi-tenant mode: every /v1/*
	// request must carry a configured API token (Authorization: Bearer)
	// and is admitted against the tenant's quotas. /healthz and /metrics
	// stay unauthenticated, and the tenant quota state is embedded in
	// /v1/stats and exported as camc_tenant_* metrics.
	Tenants *tenant.Registry
	// Ready, when non-nil, backs /readyz: a nil return is 200 "ready", an
	// error is 503 with the reason — distinct from /healthz (liveness)
	// so an orchestrator can keep a catching-up process alive without
	// routing queries to it. A nil Ready makes /readyz always ready.
	Ready func() error
	// Health, when non-nil, backs /healthz instead of the static "ok": a
	// nil return is 200, an error 503 — the worker wires this to mesh
	// connectivity so a process whose every peer is unreachable reports
	// itself dead instead of lying to the prober.
	Health func() error
	// Fleet, when non-nil, is embedded under "fleet" in /v1/stats — the
	// shard worker exposes its mesh liveness and catch-up state here.
	Fleet func() interface{}
	// ExtraMetrics, when non-nil, is appended to the /metrics exposition
	// (the shard worker's camc_fleet_* families).
	ExtraMetrics func(io.Writer)
}

// NewHandlerOpts builds the camcd HTTP API over an engine, tuned by opts:
//
//	POST /v1/graphs?name=NAME&format=edgelist|snap  — register a graph (body: text)
//	GET  /v1/graphs                                 — list graphs (name, version, fingerprint)
//	POST /v1/query                                  — run cc | mincut | approxcut
//	GET  /v1/stats                                  — pool, cache, and query metrics
//	GET  /metrics                                   — Prometheus exposition
//	GET  /healthz                                   — liveness
//	GET  /readyz                                    — readiness (mesh + catch-up state)
//
// Error mapping: malformed input and bad parameters → 400, missing or
// unknown API token (multi-tenant mode) → 401, unknown graph
// → 404, oversized body → 413, shed load or an exhausted tenant quota
// → 429 (with Retry-After), cancelled with nothing to show → 408,
// per-request deadline (queue
// expiry) → 504, faulted kernel or lost worker connection → 503 (with
// Retry-After), engine
// shutdown → 503, anything else → 500. A deadline-cancelled kernel that
// checkpointed progress is not an error: it returns 200 with
// "degraded": true, the achieved success probability, and a
// retry_after_ms hint.
func NewHandlerOpts(e *Engine, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			handleUpload(e, w, r)
		case http.MethodGet:
			handleList(e, w)
		default:
			writeError(w, http.StatusMethodNotAllowed, errors.New("GET or POST only"))
		}
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		handleQuery(e, w, r)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := e.Stats()
		if opts.Tenants != nil {
			st.Tenants = opts.Tenants.Snapshot()
		}
		if opts.Fleet != nil {
			st.Fleet = opts.Fleet()
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/metrics", handleMetrics(e, opts.Tenants, opts.ExtraMetrics))
	mux.HandleFunc("/healthz", probeEndpoint(opts.Health, "ok"))
	mux.HandleFunc("/readyz", probeEndpoint(opts.Ready, "ready"))
	if opts.Tenants != nil {
		return TenantMiddleware(opts.Tenants, mux)
	}
	return mux
}

// probeEndpoint builds a health/readiness handler over an optional
// check: nil check or nil error → 200 okBody, error → 503 + reason.
func probeEndpoint(check func() error, okBody string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if check != nil {
			if err := check(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, err.Error())
				return
			}
		}
		fmt.Fprintln(w, okBody)
	}
}

// maxUploadBytes bounds graph upload bodies (64 MiB — far above the
// laptop-scale workloads, far below a memory-exhaustion vector).
const maxUploadBytes = 64 << 20

// GraphInfo is the upload response.
type GraphInfo struct {
	Name        string `json:"name"`
	Version     uint64 `json:"version"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	TotalWeight uint64 `json:"total_weight"`
	Fingerprint string `json:"fingerprint"`
}

func infoOf(sg *StoredGraph) GraphInfo {
	return GraphInfo{
		Name:        sg.Name,
		Version:     sg.Version,
		N:           sg.Snap.N(),
		M:           sg.Snap.M(),
		TotalWeight: sg.Snap.TotalWeight(),
		Fingerprint: fmt.Sprintf("%016x", sg.Snap.Fingerprint()),
	}
}

func handleUpload(e *Engine, w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	defer io.Copy(io.Discard, body)

	var (
		g   *graph.Graph
		err error
	)
	switch format := r.URL.Query().Get("format"); format {
	case "", "edgelist":
		g, err = graph.ReadEdgeList(body)
	case "snap":
		g, err = graph.ReadSNAP(body)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want edgelist|snap)", format))
		return
	}
	if err != nil {
		// The 400-vs-500 split rides on the loader's wrapped errors:
		// caller-supplied garbage is 400, transport failures are 500.
		status := http.StatusInternalServerError
		if errors.Is(err, graph.ErrMalformed) {
			status = http.StatusBadRequest
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	sg, err := e.Registry().Put(r.URL.Query().Get("name"), g)
	if err != nil {
		writeError(w, StatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(sg))
}

// handleList writes the registry inventory — the view a rejoining
// replica (or an operator checking re-replication) diffs against a
// peer's: fingerprints prove the catch-up transfer was byte-identical.
func handleList(e *Engine, w http.ResponseWriter) {
	stored := e.Registry().List()
	infos := make([]GraphInfo, len(stored))
	for i, sg := range stored {
		infos[i] = infoOf(sg)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"graphs": infos})
}

// QueryResponse is the wire form of a query result. Labels and Side are
// present only when the request opted in.
type QueryResponse struct {
	Graph      string      `json:"graph"`
	Version    uint64      `json:"version"`
	Algorithm  string      `json:"algorithm"`
	Outcome    string      `json:"outcome"` // executed | cache_hit | coalesced | degraded
	LatencyMs  float64     `json:"latency_ms"`
	Value      *uint64     `json:"value,omitempty"`      // mincut, approxcut
	Components *int        `json:"components,omitempty"` // cc
	Iterations int         `json:"iterations,omitempty"`
	Trials     int         `json:"trials,omitempty"`
	Labels     []int32     `json:"labels,omitempty"`
	Side       []int32     `json:"side,omitempty"` // smaller shore of the cut
	Kernel     KernelStats `json:"kernel"`
	// Degraded marks a best-so-far answer from a deadline-cancelled run;
	// AchievedSuccessProb is the success probability the completed trials
	// reached (mincut), RetryAfterMs how much longer the full computation
	// was projected to need.
	Degraded            bool    `json:"degraded,omitempty"`
	AchievedSuccessProb float64 `json:"achieved_success_prob,omitempty"`
	RetryAfterMs        int64   `json:"retry_after_ms,omitempty"`
}

// DecodeQuery reads a query body (/v1/query, a shard worker's
// /v1/local): one JSON object, no unknown fields, nothing but whitespace
// after it.
func DecodeQuery(r io.Reader, req *QueryRequest) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return fmt.Errorf("trailing data after the query object: %w", err)
	}
	return nil
}

func handleQuery(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := DecodeQuery(http.MaxBytesReader(w, r.Body, 1<<20), &req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("query body over %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad query body: %w", err))
		return
	}
	reply, err := e.Query(r.Context(), req)
	if err != nil {
		status := StatusOf(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, NewQueryResponse(&req, reply))
}

// NewQueryResponse shapes a reply for the wire: the algorithm's own
// answer fields, and the bulky labelling / cut side only when req opted
// in. The shard worker's /v1/local shapes its replies with it too, so a
// failover answer reads exactly like the leader's.
func NewQueryResponse(req *QueryRequest, reply *Reply) QueryResponse {
	res := reply.Result
	resp := QueryResponse{
		Graph:               res.Graph,
		Version:             res.Version,
		Algorithm:           res.Algorithm,
		Outcome:             reply.Outcome,
		LatencyMs:           float64(reply.Latency.Microseconds()) / 1e3,
		Iterations:          res.Iterations,
		Trials:              res.Trials,
		Kernel:              res.Kernel,
		Degraded:            res.Degraded,
		AchievedSuccessProb: res.AchievedProb,
		RetryAfterMs:        res.RetryAfterMs,
	}
	switch res.Algorithm {
	case AlgCC:
		resp.Components = &res.Components
		if req.IncludeLabels {
			resp.Labels = res.Labels
		}
	case AlgMinCut:
		resp.Value = &res.Value
		if req.IncludeSide {
			resp.Side = sideVertices(res.Side)
		}
	case AlgApproxCut:
		resp.Value = &res.Value
	}
	return resp
}

// StatusOf maps engine sentinel errors onto HTTP statuses.
func StatusOf(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest), errors.Is(err, graph.ErrMalformed):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrCancelled):
		return http.StatusRequestTimeout
	case errors.Is(err, ErrFaulted), errors.Is(err, ErrTransport), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode failure here means the client went away; there is no
	// useful recovery once the header is written.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
