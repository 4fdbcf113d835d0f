package service

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/tenant"
)

// TenantMiddleware enforces authentication and quotas in front of the
// /v1/* API. It is handler-agnostic — the same wrapper guards a
// single-process engine handler and the shard frontend's router — and
// it resolves rejections before the request reaches the engine, so a
// 401 or 429 is never cached, never coalesced, and never counted as a
// query in /v1/stats.
//
// Contract:
//
//   - /healthz, /readyz, and /metrics pass through unauthenticated
//     (probes and scrapers sit inside the trust boundary).
//   - Every other request needs "Authorization: Bearer <token>" naming
//     a configured tenant; otherwise 401 with WWW-Authenticate.
//   - /v1/query takes one QPS token and one concurrency slot, released
//     when the response is written. Over-quota → 429 + Retry-After.
//   - /v1/graphs (POST) requires an explicit ?name= and a
//     Content-Length, reserves the bytes and the graph slot up front,
//     and commits the reservation only when the upload is accepted
//     (201); any other status rolls it back.
func TenantMiddleware(reg *tenant.Registry, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics":
			next.ServeHTTP(w, r)
			return
		}
		tok := bearerToken(r)
		tn, err := reg.Authenticate(tok)
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="camcd"`)
			writeError(w, http.StatusUnauthorized, err)
			return
		}
		switch {
		case r.URL.Path == "/v1/graphs" && r.Method == http.MethodPost:
			tenantUpload(tn, next, w, r)
		case r.URL.Path == "/v1/query" && r.Method == http.MethodPost:
			release, retry, err := tn.AcquireQuery()
			if err != nil {
				writeQuotaError(w, retry, err)
				return
			}
			defer release()
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

func bearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
		return strings.TrimSpace(tok)
	}
	return ""
}

// writeQuotaError maps a quota rejection to 429 with a Retry-After
// rounded up to whole seconds (minimum 1 — the header has no
// sub-second form).
func writeQuotaError(w http.ResponseWriter, retry time.Duration, err error) {
	secs := int64(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	writeError(w, http.StatusTooManyRequests, err)
}

// statusRecorder captures the downstream status so the upload
// reservation can be committed or rolled back.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func tenantUpload(tn *tenant.Tenant, next http.Handler, w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		// Auto-generated names would make per-tenant graph accounting
		// meaningless (and scatter identities across shard replicas).
		writeError(w, http.StatusBadRequest,
			errors.New("service: multi-tenant uploads require an explicit ?name="))
		return
	}
	if r.ContentLength < 0 {
		// Byte quotas are charged up front; a chunked body of unknown
		// length cannot be.
		writeError(w, http.StatusLengthRequired,
			errors.New("service: multi-tenant uploads require Content-Length"))
		return
	}
	res, retry, err := tn.ReserveUpload(name, r.ContentLength)
	if err != nil {
		writeQuotaError(w, retry, err)
		return
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	next.ServeHTTP(rec, r)
	if rec.status == http.StatusCreated {
		res.Commit()
	} else {
		res.Abort()
	}
}

// writeTenantMetrics renders the quota state as the camc_tenant_*
// families of the /metrics exposition.
func writeTenantMetrics(m metricsWriter, snaps []tenant.TenantSnapshot) {
	for _, c := range []struct {
		name, help, typ string
		get             func(tenant.TenantSnapshot) float64
	}{
		{"camc_tenant_graphs", "Graphs registered by tenant.", "gauge", func(s tenant.TenantSnapshot) float64 { return float64(s.Graphs) }},
		{"camc_tenant_bytes", "Graph bytes stored by tenant.", "gauge", func(s tenant.TenantSnapshot) float64 { return float64(s.Bytes) }},
		{"camc_tenant_concurrent_queries", "In-flight queries by tenant.", "gauge", func(s tenant.TenantSnapshot) float64 { return float64(s.Concurrent) }},
		{"camc_tenant_qps_tokens", "Token-bucket level by tenant.", "gauge", func(s tenant.TenantSnapshot) float64 { return s.QPSTokens }},
		{"camc_tenant_admitted_total", "Requests admitted by tenant.", "counter", func(s tenant.TenantSnapshot) float64 { return float64(s.Admitted) }},
	} {
		m.header(c.name, c.help, c.typ)
		for _, s := range snaps {
			m.val(c.name, fmt.Sprintf("tenant=%q", s.Name), c.get(s))
		}
	}
	m.header("camc_tenant_rejected_total", "Requests rejected by tenant and quota dimension.", "counter")
	for _, s := range snaps {
		for _, r := range []struct {
			reason string
			v      uint64
		}{
			{"qps", s.RejectedQPS},
			{"concurrency", s.RejectedConcurrency},
			{"graphs", s.RejectedGraphQuota},
			{"bytes", s.RejectedByteQuota},
		} {
			m.val("camc_tenant_rejected_total", fmt.Sprintf("tenant=%q,reason=%q", s.Name, r.reason), float64(r.v))
		}
	}
}
