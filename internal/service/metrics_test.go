package service

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/tenant"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenStats builds a fully deterministic EngineStats by hand: every
// field the renderer consumes is synthetic, so the exposition text is
// byte-stable across machines and runs.
func goldenStats() EngineStats {
	col := trace.NewCollector()
	col.Observe(trace.QuerySample{
		Algorithm: "cc", Outcome: trace.OutcomeExecuted, Latency: 800 * time.Microsecond,
		Kernel: &KernelStats{P: 4, Supersteps: 13, CommVolume: 11465, Transport: "local"},
	})
	col.Observe(trace.QuerySample{
		Algorithm: "cc", Outcome: trace.OutcomeCacheHit, Latency: 30 * time.Microsecond,
		Kernel: &KernelStats{P: 4, Supersteps: 13, CommVolume: 11465, Transport: "local"},
	})
	col.Observe(trace.QuerySample{
		Algorithm: "mincut", Outcome: trace.OutcomeExecuted, Latency: 45 * time.Millisecond,
		Kernel: &KernelStats{
			P: 2, Supersteps: 24, CommVolume: 24132, AvoidedCollectives: 3, AvoidedCommVolume: 4096,
			Transport: "tcp", WireBytes: 131072,
		},
	})
	col.Observe(trace.QuerySample{Algorithm: "mincut", Outcome: trace.OutcomeRetried})
	col.Observe(trace.QuerySample{Algorithm: "mincut", Outcome: trace.OutcomeRejected, QueueDepth: 7})
	col.Observe(trace.QuerySample{Algorithm: "approxcut", Outcome: trace.OutcomeDegraded, Latency: 2 * time.Second})

	treg := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{
		{Name: "acme", Token: "tok-acme", Quotas: tenant.Quotas{QPS: 10, Burst: 10, MaxGraphs: 4, MaxBytes: 1 << 20, MaxConcurrent: 2}},
		{Name: "zeta", Token: "tok-zeta"},
	}})
	base := time.Unix(1_700_000_000, 0)
	treg.SetNow(func() time.Time { return base })
	acme, _ := treg.Lookup("acme")
	release, _, err := acme.AcquireQuery()
	if err != nil {
		panic(err)
	}
	release()
	res, _, err := acme.ReserveUpload("g1", 2048)
	if err != nil {
		panic(err)
	}
	res.Commit()
	for { // drain the bucket to a known rejection count
		_, _, err := acme.AcquireQuery()
		if err != nil {
			break
		}
	}

	return EngineStats{
		UptimeMs:      12500,
		Graphs:        2,
		Workers:       4,
		QueueDepth:    1,
		QueueCapacity: 64,
		InflightCalls: 1,
		MaxProcessors: 16,
		Plans:         3,
		Cache:         CacheStats{Size: 5, Capacity: 128, Hits: 9, Misses: 12, Evictions: 2},
		Queries:       col.Snapshot(),
		Tenants:       treg.Snapshot(),
	}
}

// checkGolden compares got with testdata/<name> byte for byte.
// Regenerate with -update-golden after intentional changes.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestMetricsGolden pins the Prometheus exposition format byte for
// byte.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, goldenStats())
	checkGolden(t, "metrics.golden", buf.String())
}

// TestStatsGolden pins the /v1/stats JSON document — field names, order
// and number formatting — rendered the way the endpoint renders it.
func TestStatsGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, goldenStats())
	checkGolden(t, "stats.golden", rec.Body.String())
}

// TestMetricsRendersIdenticallyTwice guards determinism directly: two
// renders of the same state must be byte-identical (map iteration must
// never leak into the output).
func TestMetricsRendersIdenticallyTwice(t *testing.T) {
	st := goldenStats()
	var a, b bytes.Buffer
	WriteMetrics(&a, st)
	WriteMetrics(&b, st)
	if a.String() != b.String() {
		t.Fatal("two renders of the same state differ")
	}
}

// TestMetricsEndpointLive scrapes /metrics over HTTP against a live
// engine and sanity-checks the exposition.
func TestMetricsEndpointLive(t *testing.T) {
	e := NewEngine(Config{Workers: 2, MaxProcessors: 2})
	defer e.Close()
	if _, err := e.Registry().Put("g", gen.Cycle(32, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	for _, want := range []string{
		`camc_queries_total{algorithm="cc",outcome="executed"} 1`,
		`camc_query_latency_seconds_count{algorithm="cc"} 1`,
		`camc_transport_kernel_executions_total{transport="local"} 1`,
		`camc_kernel_executions_total{kernel="sampling"} 1`,
		"camc_graphs 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in exposition:\n%s", want, body)
		}
	}
	if strings.Contains(body, "camc_tenant_") {
		t.Error("tenant metrics must be absent without a tenant registry")
	}
}

// TestMetricsConcurrentScrape races scrapes against live queries
// mutating the collector — the test the -race service run leans on to
// prove Snapshot isolates the exposition from concurrent Observes.
func TestMetricsConcurrentScrape(t *testing.T) {
	e := NewEngine(Config{Workers: 2, MaxProcessors: 2})
	defer e.Close()
	if _, err := e.Registry().Put("g", gen.Cycle(64, 3)); err != nil {
		t.Fatal(err)
	}
	h := NewHandlerOpts(e, HandlerOptions{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mixed warm/cold traffic: rotating seeds defeat the cache
				// on some queries, so kernel executions keep mutating the
				// collector mid-scrape.
				_, _ = e.Query(context.Background(), QueryRequest{
					Graph: "g", Algorithm: AlgCC, Seed: 1 + (seed+n)%4,
				})
			}
		}(uint64(i))
	}
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "camc_uptime_seconds") {
			t.Fatalf("scrape %d: truncated exposition", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUnknownAlgorithmsShareOneLabel: the algorithm name comes from the
// request body, so a thousand distinct bogus names must not become a
// thousand permanent aggregates and /metrics series.
func TestUnknownAlgorithmsShareOneLabel(t *testing.T) {
	e := NewEngine(Config{Workers: 1, MaxProcessors: 1})
	defer e.Close()
	if _, err := e.Registry().Put("g", gen.Cycle(8, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: fmt.Sprintf("bogus-%d", i)})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("query %d: %v, want ErrBadRequest", i, err)
		}
	}
	// A known algorithm failing resolution keeps its own label.
	if _, err := e.Query(context.Background(), QueryRequest{Graph: "missing", Algorithm: AlgCC}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing graph: %v", err)
	}
	st := e.Stats()
	if n := len(st.Queries.Algorithms); n > 4 {
		t.Errorf("%d per-algorithm aggregates, want at most 4", n)
	}
	if got := st.Queries.Totals.Errors; got != 1001 {
		t.Errorf("totals.errors = %d, want 1001", got)
	}
	if got := st.Queries.Algorithms["unknown"].Errors; got != 1000 {
		t.Errorf("unknown.errors = %d, want 1000", got)
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, st)
	if n := strings.Count(buf.String(), `camc_queries_total{algorithm="unknown"`); n != 1 {
		t.Errorf("%d camc_queries_total series for algorithm=\"unknown\", want 1", n)
	}
	if strings.Contains(buf.String(), "bogus") {
		t.Error("a request-supplied algorithm name reached the exposition")
	}
}
