package shard

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/transport"
)

func TestRingPlacement(t *testing.T) {
	r, err := NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic and stable across constructions.
	r2, _ := NewRing(4, 0)
	hits := make([]int, 4)
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("graph-%d", i)
		s := r.Shard(name)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if s2 := r2.Shard(name); s2 != s {
			t.Fatalf("placement of %q unstable: %d vs %d", name, s, s2)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Errorf("shard %d received no names (skew too extreme)", s)
		}
	}
	// Growing the ring moves only a fraction of the names.
	r5, _ := NewRing(5, 0)
	moved := 0
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("graph-%d", i)
		if r5.Shard(name) != r.Shard(name) {
			moved++
		}
	}
	if moved > 200 {
		t.Errorf("adding one shard moved %d/400 names; consistent hashing should move ~1/5", moved)
	}
	if _, err := NewRing(0, 0); err == nil {
		t.Error("zero-shard ring must not construct")
	}
}

// nameOnShard finds a graph name the ring places on the wanted shard.
func nameOnShard(t *testing.T, ring *Ring, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("g%d", i)
		if ring.Shard(name) == shard {
			return name
		}
	}
	t.Fatal("no name found for shard")
	return ""
}

// newWorkerGroup brings up one shard's p worker processes in-process:
// pre-bound loopback listeners, concurrent mesh establishment, one
// httptest server per worker. Returns the workers and their base URLs.
func newWorkerGroup(t *testing.T, p int, epoch uint64, freg *faults.Registry) ([]*Worker, []string) {
	t.Helper()
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	workers := make([]*Worker, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workers[i], errs[i] = NewWorker(WorkerConfig{
				Rank:     i,
				Addrs:    addrs,
				Epoch:    epoch,
				Listener: lns[i],
				Faults:   freg,
				Service:  service.Config{Workers: 1, DefaultTimeout: 30 * time.Second},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	urls := make([]string, p)
	for i, w := range workers {
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
	})
	return workers, urls
}

func edgeListOf(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var b bytes.Buffer
	if err := graph.WriteEdgeList(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// waitReady blocks until the worker reports ready (mesh connected and
// catch-up complete) or 5s pass.
func waitReady(t *testing.T, w *Worker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.Ready() == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker rank %d never became ready: %v", w.Rank(), w.Ready())
}

func postJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFleetEndToEnd drives the whole tier in-process: two shards (one
// 2-rank group, one 1-rank group) behind a frontend. Uploads replicate
// to the owning shard's ranks, queries run on the shard's distributed
// machine with correct results, repeats hit the leader's cache, and the
// merged stats account the wire traffic.
func TestFleetEndToEnd(t *testing.T) {
	_, urls0 := newWorkerGroup(t, 2, 100, nil)
	_, urls1 := newWorkerGroup(t, 1, 200, nil)
	fe, err := NewFrontend([][]string{urls0, urls1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()

	// One graph per shard: a weighted cycle has one component and min cut
	// exactly twice the edge weight.
	ring, _ := NewRing(2, 0)
	names := []string{nameOnShard(t, ring, 0), nameOnShard(t, ring, 1)}
	g := gen.Cycle(64, 3)
	for i, name := range names {
		resp, err := http.Post(srv.URL+"/v1/graphs?name="+name, "text/plain",
			strings.NewReader(edgeListOf(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %q: status %d", name, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Shard"); got != fmt.Sprint(i) {
			t.Fatalf("upload %q placed on shard %s, want %d", name, got, i)
		}
		resp.Body.Close()
	}
	// Nameless uploads are rejected: placement must be well-defined.
	resp, err := http.Post(srv.URL+"/v1/graphs", "text/plain", strings.NewReader(edgeListOf(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless upload: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Even the 1-rank shard executes over its mesh session, so both label
	// their runs "tcp"; only the 2-rank shard moves actual wire bytes.
	wantTransport := []string{transport.KindTCP, transport.KindTCP}
	wantP := []int{2, 1}
	for i, name := range names {
		for _, alg := range []string{service.AlgCC, service.AlgMinCut} {
			resp := postJSON(t, srv.URL+"/v1/query", service.QueryRequest{Graph: name, Algorithm: alg})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %s/%s: status %d", name, alg, resp.StatusCode)
			}
			var qr service.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			switch alg {
			case service.AlgCC:
				if qr.Components == nil || *qr.Components != 1 {
					t.Fatalf("%s cc components = %v, want 1", name, qr.Components)
				}
			case service.AlgMinCut:
				if qr.Value == nil || *qr.Value != 6 {
					t.Fatalf("%s mincut = %v, want 6 (cycle of weight-3 edges)", name, qr.Value)
				}
			}
			if qr.Kernel.P != wantP[i] {
				t.Fatalf("%s %s ran at p=%d, want %d", name, alg, qr.Kernel.P, wantP[i])
			}
			if want := planner.For(alg).Name; qr.Kernel.Kernel != want {
				t.Fatalf("%s %s reply names kernel %q, want %q", name, alg, qr.Kernel.Kernel, want)
			}
			if qr.Kernel.Transport != wantTransport[i] {
				t.Fatalf("%s %s transport %q, want %q", name, alg, qr.Kernel.Transport, wantTransport[i])
			}
			if i == 0 && qr.Kernel.WireBytes == 0 {
				t.Fatalf("distributed %s run accounted no wire bytes", alg)
			}
			if qr.Kernel.WireRawBytes != qr.Kernel.WireBytes {
				t.Fatalf("%s %s: wire_raw_bytes %d, wire_bytes %d", name, alg, qr.Kernel.WireRawBytes, qr.Kernel.WireBytes)
			}

			// Identical repeat: served from the leader's cache.
			resp = postJSON(t, srv.URL+"/v1/query", service.QueryRequest{Graph: name, Algorithm: alg})
			var qr2 service.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr2); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if qr2.Outcome != "cache_hit" {
				t.Fatalf("repeat %s/%s outcome %q, want cache_hit", name, alg, qr2.Outcome)
			}
		}
	}

	// Peer ranks reject queries routed around the frontend.
	resp = postJSON(t, urls0[1]+"/v1/query", service.QueryRequest{Graph: names[0], Algorithm: service.AlgCC})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("query to non-leader: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Merged stats: both graphs, all queries, and the distributed shard's
	// wire traffic, broken out per transport.
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var fs FrontendStats
	if err := json.NewDecoder(sresp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if fs.Graphs != 2 {
		t.Fatalf("merged graphs = %d, want 2", fs.Graphs)
	}
	if fs.Queries < 8 {
		t.Fatalf("merged queries = %d, want >= 8", fs.Queries)
	}
	if fs.CacheHits < 4 {
		t.Fatalf("merged cache hits = %d, want >= 4", fs.CacheHits)
	}
	if fs.WireBytes == 0 {
		t.Fatal("merged stats account no wire bytes despite distributed runs")
	}
	if fs.UnreachableWorkers != 0 {
		t.Fatalf("%d unreachable workers", fs.UnreachableWorkers)
	}
	if fs.Transports[transport.KindTCP].KernelExecutions < 4 ||
		fs.Transports[transport.KindTCP].WireBytes == 0 {
		t.Fatalf("per-transport aggregates missing tcp executions: %+v", fs.Transports)
	}
}

// TestFleetPartialReplication exercises a run failing closed: the graph
// exists on the leader but not on the peer (registered around the
// frontend), so the peer refuses the run by aborting it and the leader
// fails in its first superstep, surfacing as a retryable 503.
func TestFleetPartialReplication(t *testing.T) {
	workers, urls := newWorkerGroup(t, 2, 300, nil)
	g := gen.Cycle(32, 2)
	// Let the join-time catch-up round finish first — otherwise the
	// leader-only registration below races the initial state/sync
	// exchange, which would (correctly) re-replicate it to the peer.
	waitReady(t, workers[1])
	// Register on the leader only.
	if _, err := workers[0].Engine().Registry().Put("lopsided", g); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: "lopsided", Algorithm: service.AlgCC})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (peer cannot run the graph)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 reply lacks Retry-After")
	}
}

// TestFleetPeerContentMismatch: the peer holds a graph under the name
// the leader runs, but at another version and with other content. The
// peer must refuse the run at once by aborting it — a retryable 503
// well inside the query deadline — rather than join it and then sit the
// run out, which leaves the leader waiting on the peer until the
// deadline.
func TestFleetPeerContentMismatch(t *testing.T) {
	workers, urls := newWorkerGroup(t, 2, 350, nil)
	waitReady(t, workers[1])
	if _, err := workers[0].Engine().Registry().Put("twin", gen.Cycle(32, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := workers[1].Engine().Registry().PutVersion("twin", 2, gen.Cycle(33, 2)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp := postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: "twin", Algorithm: service.AlgCC})
	defer resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after %v, want 503 (peer holds other content)", resp.StatusCode, elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 reply lacks Retry-After")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("rejection took %v, want it from the peer's abort, not the deadline", elapsed)
	}
}

// TestFleetWireDropFault injects the transport fault grammar end to
// end: drop@1:* severs rank 1's connections at its first Exchange, the
// leader sees ErrPeerLost, and the query resolves 503 + Retry-After
// with the transport_lost outcome counted.
func TestFleetWireDropFault(t *testing.T) {
	freg, err := faults.Parse("drop@1:*:x*")
	if err != nil {
		t.Fatal(err)
	}
	workers, urls := newWorkerGroup(t, 2, 400, freg)
	g := gen.Cycle(32, 2)
	for _, w := range workers {
		if _, err := w.Engine().Registry().Put("doomed", g); err != nil {
			t.Fatal(err)
		}
	}
	resp := postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: "doomed", Algorithm: service.AlgCC})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 reply lacks Retry-After")
	}
	if freg.Fired()["drop"] == 0 {
		t.Fatal("drop rule never fired")
	}
	var st service.EngineStats
	sresp, err := http.Get(urls[0] + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Queries.Totals.TransportLost != 1 {
		t.Fatalf("transport_lost = %d, want 1", st.Queries.Totals.TransportLost)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestFrontendStatsGolden pins the frontend's merged /v1/stats document
// over canned worker replies: two shard leaders (whose totals and
// per-transport aggregates sum into the fleet view) and one replica
// (listed, never summed). Worker URLs are rewritten to stable names.
func TestFrontendStatsGolden(t *testing.T) {
	serve := func(path string) string {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/stats" {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(doc)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	leader0 := serve(filepath.Join("..", "service", "testdata", "stats.golden"))
	leader1 := serve(filepath.Join("testdata", "leader1_stats.json"))
	replica0 := serve(filepath.Join("testdata", "leader1_stats.json"))
	fe, err := NewFrontend([][]string{{leader0, replica0}, {leader1}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	fe.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	got := strings.NewReplacer(leader0, "http://leader0", replica0, "http://replica0", leader1, "http://leader1").
		Replace(rec.Body.String())

	path := filepath.Join("testdata", "frontend_stats.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Fatalf("merged stats drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
