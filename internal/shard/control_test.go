package shard

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/transport"
)

// leaderWithBarePeer brings up a 2-rank group whose rank 1 is a bare
// mesh: no registry and no job control, only onControl, which sees every
// CONTROL frame the leader sends it. It returns the leader, the peer and
// the leader's HTTP base URL.
func leaderWithBarePeer(t *testing.T, epoch uint64, onControl func(peer *transport.Mesh)) (*Worker, *transport.Mesh, string) {
	t.Helper()
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
		leader *Worker
		peer   *transport.Mesh
		errs   [2]error
		wg     sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader, errs[0] = NewWorker(WorkerConfig{
			Rank: 0, Addrs: addrs, Epoch: epoch, Listener: lns[0],
			Service: service.Config{Workers: 1, DefaultTimeout: 30 * time.Second},
		})
	}()
	go func() {
		defer wg.Done()
		peer, errs[1] = transport.NewMesh(transport.MeshConfig{
			Rank: 1, Addrs: addrs, MachineEpoch: epoch, Listener: lns[1],
			Control: func(int, uint64, []byte) { onControl(peer) },
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
	return leader, peer, srv.URL
}

// TestPeerLostAfterStartFailsAtOnce: rank 1 is a bare mesh that closes
// itself on the first control frame it reads, i.e. right after taking
// the leader's "start". The leader's run must fail as a lost peer as
// soon as the connection drops — a retryable 503 — not wait out the
// query's deadline. The query is an approximate cut, which on a
// connected graph the leader's plan does not answer, so it opens a run.
func TestPeerLostAfterStartFailsAtOnce(t *testing.T) {
	var dieOnce sync.Once
	leader, _, url := leaderWithBarePeer(t, 500, func(peer *transport.Mesh) {
		// Close waits for the read pumps, this callback's among them, so
		// it runs on its own goroutine.
		dieOnce.Do(func() { go peer.Close() })
	})
	if _, err := leader.Engine().Registry().Put("ring", gen.Cycle(32, 2)); err != nil {
		t.Fatal(err)
	}

	begin := time.Now()
	resp := postJSON(t, url+"/v1/query", service.QueryRequest{
		Graph: "ring", Algorithm: service.AlgApproxCut, TimeoutMillis: 3000,
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

// TestPlanAnsweredQueriesStayOnLeader: a query the leader's plan answers
// (planner.Answers) runs on the leader alone. Rank 1 is a bare mesh that
// counts its CONTROL frames and never joins a run; it lacks the graph,
// and later it is gone. Throughout, cc answers 200 with BFS's component
// count, and so does mincut on a graph whose certificate proves — its
// first query on the version and every later one — while the peer counts
// no frame. A reply reports the local fabric, no superstep and no wire
// byte, and the collectives its plan held.
func TestPlanAnsweredQueriesStayOnLeader(t *testing.T) {
	var frames atomic.Int64
	leader, peer, url := leaderWithBarePeer(t, 560, func(*transport.Mesh) { frames.Add(1) })
	forest := gen.ErdosRenyiM(300, 200, 4, gen.Config{})
	wantCC := cc.Sequential(forest).Count
	if wantCC < 2 {
		t.Fatalf("test graph has %d components, want several", wantCC)
	}
	for name, g := range map[string]*graph.Graph{"forest": forest, "ring": gen.Cycle(32, 2)} {
		if _, err := leader.Engine().Registry().Put(name, g); err != nil {
			t.Fatal(err)
		}
	}
	ask := func(state string, req service.QueryRequest, check func(*service.QueryResponse) bool) {
		t.Helper()
		req.NoCache = true
		resp := postJSON(t, url+"/v1/query", req)
		defer resp.Body.Close()
		var qr service.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		k := qr.Kernel
		if resp.StatusCode != http.StatusOK || !check(&qr) {
			t.Fatalf("%s, %s on %q: status %d, reply %+v", state, req.Algorithm, req.Graph, resp.StatusCode, qr)
		}
		if k.Transport != transport.KindLocal || k.Supersteps != 0 || k.WireBytes != 0 || k.AvoidedCollectives == 0 || k.AvoidedCommVolume == 0 {
			t.Fatalf("%s, %s: transport %q, %d supersteps, %d wire bytes, avoided %d / %d; want local, 0, 0 and the plan's collectives",
				state, req.Algorithm, k.Transport, k.Supersteps, k.WireBytes, k.AvoidedCollectives, k.AvoidedCommVolume)
		}
		if n := frames.Load(); n != 0 {
			t.Fatalf("%s, %s: the peer read %d CONTROL frames, want 0", state, req.Algorithm, n)
		}
	}
	components := func(qr *service.QueryResponse) bool { return qr.Components != nil && *qr.Components == wantCC }
	cut := func(qr *service.QueryResponse) bool { return qr.Value != nil && *qr.Value == 4 }
	for _, state := range []string{"peer lacks the graph", "peer lost"} {
		if state == "peer lost" {
			peer.Close()
		}
		for seed := uint64(1); seed <= 2; seed++ {
			ask(state, service.QueryRequest{Graph: "forest", Algorithm: service.AlgCC, Seed: seed}, components)
			ask(state, service.QueryRequest{Graph: "ring", Algorithm: service.AlgMinCut, Seed: seed}, cut)
		}
	}
}

// TestPeerRefusalAbortsEveryRank: on a 3-rank group the graph is on
// ranks 0 and 1 but not on rank 2. Rank 2 refuses the run by aborting
// it, which must fail the query at once (a retryable 503, counted as
// faulted) even though rank 1 already joined; once rank 2 holds the
// graph, the same query succeeds. The query is an approximate cut, which
// on a connected graph needs a distributed run.
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
	req := service.QueryRequest{Graph: "partial", Algorithm: service.AlgApproxCut}

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
	if qr.Value == nil || qr.Kernel.Transport != transport.KindTCP || qr.Kernel.WireBytes == 0 {
		t.Fatalf("value %v over %q with %d wire bytes, want a cut from a distributed run",
			qr.Value, qr.Kernel.Transport, qr.Kernel.WireBytes)
	}
	resp = postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: "partial", Algorithm: service.AlgCC})
	defer resp.Body.Close()
	qr = service.QueryResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Components == nil || *qr.Components != 1 {
		t.Fatalf("cc: status %d, components = %v, want 1 (a cycle)", resp.StatusCode, qr.Components)
	}
}
