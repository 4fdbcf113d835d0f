package service

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tenant"
	"repro/internal/trace"
)

// Prometheus exposition of the serving metrics, rendered straight off
// the engine's trace.Collector (no third-party client library: the
// text format is a dozen lines of printf, and the collector already
// holds every aggregate the scrape needs).
//
// What is exported is declared where the aggregates are, not here:
// trace.OutcomeTable (camc_queries_total's outcome labels),
// trace.AlgoCounters and trace.TransportCounters (the per-algorithm and
// per-fabric cost counters) and trace.KernelFamilies name every family,
// help text and field, and WriteMetrics only walks them. Adding a
// counter is one aggregate field plus one table row in internal/trace;
// nothing in this package changes. The engine's own scalars (cache, pool,
// planner) are rows of the scalar shape below; DESIGN.md §4g lists the
// naming scheme.
//
// Label sets are emitted in sorted order so the output is deterministic
// for a given state — the property the golden-file test pins.

// fmtFloat renders a float the Prometheus way: integral values without
// an exponent, everything else in Go's shortest form.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type metricsWriter struct {
	w io.Writer
}

func (m metricsWriter) header(name, help, typ string) {
	fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m metricsWriter) val(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(m.w, "%s{%s} %s\n", name, labels, fmtFloat(v))
	} else {
		fmt.Fprintf(m.w, "%s %s\n", name, fmtFloat(v))
	}
}

// scalar is one unlabelled family: a single engine-level value.
type scalar struct {
	name, help, typ string
	v               float64
}

func (m metricsWriter) scalars(rows []scalar) {
	for _, r := range rows {
		m.header(r.name, r.help, r.typ)
		m.val(r.name, "", r.v)
	}
}

// sortedKeys returns a label map's keys in stable order.
func sortedKeys[V any](byLabel map[string]V) []string {
	names := make([]string, 0, len(byLabel))
	for name := range byLabel {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeCounters renders a counter table's exported rows over the
// aggregates kept under each label value; zeros are series only on request.
func writeCounters[T any](m metricsWriter, rows []trace.Counter[T], label string, byLabel map[string]T, zeros bool) {
	names := sortedKeys(byLabel)
	for _, c := range rows {
		if c.Family == "" {
			continue
		}
		m.header(c.Family, c.Help, "counter")
		for _, name := range names {
			agg := byLabel[name]
			if v := *c.Field(&agg); v > 0 || zeros {
				m.val(c.Family, fmt.Sprintf("%s=%q", label, name), float64(v))
			}
		}
	}
}

// WriteMetrics renders the engine state as Prometheus exposition text.
// tenants may be nil (single-tenant deployments).
func WriteMetrics(w io.Writer, st EngineStats) {
	m := metricsWriter{w}
	snap := &st.Queries
	algos := sortedKeys(snap.Algorithms)

	m.header("camc_queries_total", "Query resolutions by algorithm and outcome.", "counter")
	for _, alg := range algos {
		a := snap.Algorithms[alg]
		for _, oc := range trace.OutcomeTable {
			if v := *oc.Field(&a); v > 0 {
				m.val("camc_queries_total", fmt.Sprintf("algorithm=%q,outcome=%q", alg, oc.Label), float64(v))
			}
		}
	}

	m.header("camc_retries_total", "Transient kernel faults absorbed by the retry policy.", "counter")
	for _, alg := range algos {
		a := snap.Algorithms[alg]
		if a.Retried > 0 {
			m.val("camc_retries_total", fmt.Sprintf("algorithm=%q", alg), float64(a.Retried))
		}
	}

	m.header("camc_query_latency_seconds", "Query latency (rejections excluded).", "histogram")
	for _, alg := range algos {
		a := snap.Algorithms[alg]
		if a.LatencyHistogram == nil {
			continue
		}
		cum := uint64(0)
		for i, ub := range trace.LatencyBuckets {
			cum += a.LatencyHistogram[i]
			m.val("camc_query_latency_seconds_bucket",
				fmt.Sprintf("algorithm=%q,le=%q", alg, fmtFloat(ub)), float64(cum))
		}
		cum += a.LatencyHistogram[len(trace.LatencyBuckets)]
		m.val("camc_query_latency_seconds_bucket", fmt.Sprintf("algorithm=%q,le=\"+Inf\"", alg), float64(cum))
		m.val("camc_query_latency_seconds_sum", fmt.Sprintf("algorithm=%q", alg), a.TotalLatencyMs/1e3)
		m.val("camc_query_latency_seconds_count", fmt.Sprintf("algorithm=%q", alg), float64(cum))
	}

	writeCounters(m, trace.AlgoCounters, "algorithm", snap.Algorithms, false)

	// Per-fabric kernel costs: wire bytes on "tcp" vs zero on "local" is
	// the communication-avoidance claim, scrapeable — so a fabric's zeros
	// are series too.
	writeCounters(m, trace.TransportCounters, "transport", snap.Transports, true)

	m.scalars([]scalar{
		{"camc_cache_entries", "Result cache entries.", "gauge", float64(st.Cache.Size)},
		{"camc_cache_hits_total", "Result cache hits.", "counter", float64(st.Cache.Hits)},
		{"camc_cache_misses_total", "Result cache misses.", "counter", float64(st.Cache.Misses)},
		{"camc_cache_evictions_total", "Result cache evictions.", "counter", float64(st.Cache.Evictions)},
		{"camc_graphs", "Registered graphs.", "gauge", float64(st.Graphs)},
		{"camc_plans", "Snapshot-resident query plans.", "gauge", float64(st.Plans)},
		{"camc_workers", "Kernel worker pool size.", "gauge", float64(st.Workers)},
		{"camc_queue_depth", "Admission queue depth.", "gauge", float64(st.QueueDepth)},
		{"camc_queue_capacity", "Admission queue capacity.", "gauge", float64(st.QueueCapacity)},
		{"camc_queue_depth_max", "High-water admission queue depth.", "gauge", float64(snap.MaxQueueDepth)},
		{"camc_inflight_calls", "Distinct kernel executions in flight.", "gauge", float64(st.InflightCalls)},
		{"camc_coalesced_waiters", "Followers waiting on in-flight calls.", "gauge", float64(st.CoalescedWaiters)},
		{"camc_uptime_seconds", "Process uptime.", "gauge", st.UptimeMs / 1e3},
	})

	// Per-kernel execution aggregates appear once any named portfolio
	// kernel has run (planner on, or a request-pinned kernel); absent
	// otherwise, so pre-portfolio scrapes are byte-identical.
	if len(snap.Kernels) > 0 {
		kernels := sortedKeys(snap.Kernels)
		for _, f := range trace.KernelFamilies {
			m.header(f.Family, f.Help, "counter")
			for _, name := range kernels {
				k := snap.Kernels[name]
				m.val(f.Family, fmt.Sprintf("kernel=%q", name), f.Value(&k))
			}
		}
	}

	// Planner counters appear only when planning is enabled, keeping the
	// planner-off exposition unchanged.
	if st.Planner != nil {
		pl := st.Planner
		m.scalars([]scalar{
			{"camc_planner_decisions_total", "Planner decisions made.", "counter", float64(pl.Decisions)},
			{"camc_planner_fallbacks_total", "Decisions without a calibrated default model.", "counter", float64(pl.Fallbacks)},
			{"camc_planner_executed_total", "Planned queries observed after execution.", "counter", float64(pl.Executed)},
			{"camc_planner_diverged_total", "Executions where the planner overrode the default choice.", "counter", float64(pl.Diverged)},
			{"camc_planner_wins_total", "Overrides whose measured time beat the predicted default path.", "counter", float64(pl.Wins)},
			{"camc_planner_win_rate", "Wins over diverged decisions.", "gauge", pl.WinRate},
			{"camc_planner_prediction_mean_abs_err", "Mean |predicted-actual|/actual over planned executions.", "gauge", pl.MeanAbsErr},
		})
		if len(pl.Choices) > 0 {
			m.header("camc_planner_choices_total", "Planner decisions per chosen kernel.", "counter")
			for _, name := range sortedKeys(pl.Choices) {
				m.val("camc_planner_choices_total", fmt.Sprintf("kernel=%q", name), float64(pl.Choices[name]))
			}
		}
	}

	if len(st.Tenants) > 0 {
		writeTenantMetrics(m, st.Tenants)
	}
}

// handleMetrics serves GET /metrics. The endpoint is read-only and
// unauthenticated (scrapers sit inside the trust boundary, like
// /healthz); tenant quota state appears under camc_tenant_* when a
// tenant registry is configured.
func handleMetrics(e *Engine, tenants *tenant.Registry, extra func(io.Writer)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
			return
		}
		st := e.Stats()
		if tenants != nil {
			st.Tenants = tenants.Snapshot()
		}
		var b strings.Builder
		WriteMetrics(&b, st)
		if extra != nil {
			extra(&b)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, b.String())
	}
}
