package shard

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/transport"
)

// TestPeerLostAfterStartFailsAtOnce: rank 1 is a bare mesh that closes
// itself on the first control frame it reads, i.e. right after taking
// the leader's "start". The leader's run must fail as a lost peer as
// soon as the connection drops — a retryable 503 — not wait out the
// query's deadline.
func TestPeerLostAfterStartFailsAtOnce(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var (
		leader  *Worker
		peer    *transport.Mesh
		errs    [2]error
		wg      sync.WaitGroup
		dieOnce sync.Once
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader, errs[0] = NewWorker(WorkerConfig{
			Rank: 0, Addrs: addrs, Epoch: 500, Listener: lns[0],
			Service: service.Config{Workers: 1, DefaultTimeout: 30 * time.Second},
		})
	}()
	go func() {
		defer wg.Done()
		peer, errs[1] = transport.NewMesh(transport.MeshConfig{
			Rank: 1, Addrs: addrs, MachineEpoch: 500, Listener: lns[1],
			Control: func(int, uint64, []byte) {
				// Close waits for the read pumps, this callback's among
				// them, so it runs on its own goroutine.
				dieOnce.Do(func() { go peer.Close() })
			},
		})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		leader.Close()
		peer.Close()
	})
	srv := httptest.NewServer(leader.Handler())
	t.Cleanup(srv.Close)
	if _, err := leader.Engine().Registry().Put("ring", gen.Cycle(32, 2)); err != nil {
		t.Fatal(err)
	}

	begin := time.Now()
	resp := postJSON(t, srv.URL+"/v1/query", service.QueryRequest{
		Graph: "ring", Algorithm: service.AlgCC, TimeoutMillis: 3000,
	})
	defer resp.Body.Close()
	elapsed := time.Since(begin)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after %v, want 503 (peer lost)", resp.StatusCode, elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 reply lacks Retry-After")
	}
	if elapsed >= time.Second {
		t.Fatalf("peer loss took %v to fail the query, want it at once, not at the 3s deadline", elapsed)
	}
}

// TestPeerRefusalAbortsEveryRank: on a 3-rank group the graph is on
// ranks 0 and 1 but not on rank 2. Rank 2 refuses the run by aborting
// it, which must fail the query at once (a retryable 503, counted as
// faulted) even though rank 1 already joined; once rank 2 holds the
// graph, the same query succeeds.
func TestPeerRefusalAbortsEveryRank(t *testing.T) {
	workers, urls := newWorkerGroup(t, 3, 550, nil)
	waitReady(t, workers[1])
	waitReady(t, workers[2])
	g := gen.Cycle(32, 2)
	for _, w := range workers[:2] {
		if _, err := w.Engine().Registry().Put("partial", g); err != nil {
			t.Fatal(err)
		}
	}
	req := service.QueryRequest{Graph: "partial", Algorithm: service.AlgCC}

	begin := time.Now()
	resp := postJSON(t, urls[0]+"/v1/query", req)
	resp.Body.Close()
	elapsed := time.Since(begin)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after %v, want 503 (rank 2 lacks the graph)", resp.StatusCode, elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 reply lacks Retry-After")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("refusal took %v, want it at once", elapsed)
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
	if st.Queries.Totals.Faulted != 1 || st.Queries.Totals.TransportLost != 0 {
		t.Fatalf("faulted = %d, transport_lost = %d; a refused run counts as faulted",
			st.Queries.Totals.Faulted, st.Queries.Totals.TransportLost)
	}

	if _, err := workers[2].Engine().Registry().Put("partial", g); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, urls[0]+"/v1/query", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d once every rank holds the graph, want 200", resp.StatusCode)
	}
	var qr service.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Components == nil || *qr.Components != 1 {
		t.Fatalf("components = %v, want 1 (a cycle)", qr.Components)
	}
}
