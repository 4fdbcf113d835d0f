package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchsnap"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/transport"
)

// fastWorkerGroup is newWorkerGroup with aggressive failure detection
// (20ms heartbeats) so detection-path tests finish in milliseconds.
// Returned listeners' addresses are reused by respawn tests.
func fastWorkerGroup(t *testing.T, p int, epoch uint64, freg *faults.Registry, crashFn func(rank int)) ([]*Worker, []string, []string) {
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
			cfg := WorkerConfig{
				Rank:              i,
				Addrs:             addrs,
				Epoch:             epoch,
				Listener:          lns[i],
				Faults:            freg,
				Service:           service.Config{Workers: 1, DefaultTimeout: 30 * time.Second},
				HeartbeatInterval: 20 * time.Millisecond,
			}
			if crashFn != nil {
				rank := i
				cfg.CrashFn = func() { crashFn(rank) }
			}
			workers[i], errs[i] = NewWorker(cfg)
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
	return workers, urls, addrs
}

func uploadGraph(t *testing.T, url, name, body string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/graphs?name="+name, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload %q: status %d: %s", name, resp.StatusCode, b)
	}
}

// fingerprints fetches GET /v1/graphs and returns name → fingerprint.
func fingerprints(t *testing.T, url string) map[string]string {
	t.Helper()
	resp, err := http.Get(url + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(listing.Graphs))
	for _, gi := range listing.Graphs {
		out[gi.Name] = fmt.Sprintf("%s@%d:%s", gi.Name, gi.Version, gi.Fingerprint)
	}
	return out
}

// TestWorkerReincarnationCatchup is the in-process core of the chaos
// e2e: kill a peer rank mid-fleet, observe the leader fail queries
// closed (503 + Retry-After), respawn the rank with a bumped
// incarnation on the same address, and verify it catches up every
// graph byte-identically — including one registered while it was dead
// — after which distributed queries succeed again.
func TestWorkerReincarnationCatchup(t *testing.T) {
	workers, urls, addrs := fastWorkerGroup(t, 2, 900, nil, nil)
	defer workers[0].Close()
	waitReady(t, workers[1])

	cycle := edgeListOf(t, gen.Cycle(64, 3))
	uploadGraph(t, urls[0], "alpha", cycle)
	uploadGraph(t, urls[1], "alpha", cycle)

	resp := postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: "alpha", Algorithm: service.AlgMinCut})
	var qr service.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Value == nil || *qr.Value != 6 {
		t.Fatalf("baseline mincut: status %d, value %v", resp.StatusCode, qr.Value)
	}

	// Kill the peer. The leader's detector notices within a heartbeat
	// interval or two and new queries fail closed.
	workers[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for workers[0].Engine() != nil && time.Now().Before(deadline) {
		if !workers[0].FleetStats().Peers[0].Up {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if workers[0].FleetStats().Peers[0].Up {
		t.Fatal("leader never marked the dead peer down")
	}
	if err := workers[0].Health(); err == nil {
		t.Fatal("leader of a 2-rank group with its only peer dead should be unhealthy")
	}
	if err := workers[0].Ready(); err == nil {
		t.Fatal("leader should not be ready with a peer down")
	}

	// A query while the peer is dead: 503 + Retry-After, never cached.
	resp = postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: "alpha", Algorithm: service.AlgMinCut, Seed: 7})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query with dead peer: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 lacks Retry-After")
	}
	resp.Body.Close()

	// An upload that lands while the rank is dead (leader only — the
	// dead rank's HTTP endpoint would refuse anyway).
	uploadGraph(t, urls[0], "missed", edgeListOf(t, gen.Cycle(48, 2)))

	// Respawn rank 1 on the same address with a bumped incarnation.
	ln, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := NewWorker(WorkerConfig{
		Rank:              1,
		Addrs:             addrs,
		Epoch:             900,
		Listener:          ln,
		Incarnation:       2,
		Service:           service.Config{Workers: 1, DefaultTimeout: 30 * time.Second},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("respawn: %v", err)
	}
	defer reborn.Close()
	waitReady(t, reborn)
	waitReady(t, workers[0])

	// The survivors admitted the reincarnation, not a stale ghost.
	if inc := workers[0].FleetStats().Peers[0].Incarnation; inc != 2 {
		t.Fatalf("leader sees peer incarnation %d, want 2", inc)
	}

	// Catch-up re-replicated both graphs byte-identically: identical
	// (name, version, fingerprint) triples on both ranks.
	rebornSrv := httptest.NewServer(reborn.Handler())
	defer rebornSrv.Close()
	lead, rep := fingerprints(t, urls[0]), fingerprints(t, rebornSrv.URL)
	for name, fp := range lead {
		if rep[name] != fp {
			t.Fatalf("catch-up mismatch for %q: leader %s, replica %s", name, fp, rep[name])
		}
	}
	if fs := reborn.FleetStats(); fs.CatchupGraphsReceived != 2 {
		t.Fatalf("replica received %d catch-up graphs, want 2", fs.CatchupGraphsReceived)
	}
	if fs := workers[0].FleetStats(); fs.CatchupGraphsSent < 2 {
		t.Fatalf("leader sent %d catch-up graphs, want >= 2", fs.CatchupGraphsSent)
	}

	// Distributed queries over both graphs — including the one the dead
	// rank never saw — succeed with correct values again.
	for name, want := range map[string]uint64{"alpha": 6, "missed": 4} {
		resp := postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: name, Algorithm: service.AlgMinCut, Seed: 9})
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var qr service.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("decode %q: %v (%s)", name, err, raw)
		}
		if resp.StatusCode != http.StatusOK || qr.Value == nil || *qr.Value != want {
			t.Fatalf("post-recovery mincut %q: status %d, value %v, want %d (%s)", name, resp.StatusCode, qr.Value, want, raw)
		}
	}
}

// TestCrashFaultAbortsRun drives the crash fault kind end to end
// in-process: crash@1:1 "kills" rank 1 (its CrashFn shuts the worker
// down) at superstep 1 of a distributed run; the leader aborts with
// ErrPeerLost and the query resolves 503 + Retry-After.
func TestCrashFaultAbortsRun(t *testing.T) {
	freg, err := faults.Parse("crash@1:1")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var workers []*Worker
	crash := func(rank int) {
		mu.Lock()
		w := workers[rank]
		mu.Unlock()
		go w.Close()
	}
	ws, urls, _ := fastWorkerGroup(t, 2, 901, freg, crash)
	mu.Lock()
	workers = ws
	mu.Unlock()
	defer ws[0].Close()
	defer ws[1].Close()

	// A dumbbell's bridge is lighter than every singleton, so the
	// certificate fails and the run reaches the supersteps after the
	// gather, where the crash fires.
	victim := edgeListOf(t, gen.Dumbbell(32, 3, 1))
	uploadGraph(t, urls[0], "victim", victim)
	uploadGraph(t, urls[1], "victim", victim)

	resp := postJSON(t, urls[0]+"/v1/query", service.QueryRequest{Graph: "victim", Algorithm: service.AlgMinCut})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 after crash fault", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 lacks Retry-After")
	}
	if freg.Fired()["crash"] == 0 {
		t.Fatal("crash rule never fired")
	}
}

// TestFrontendFailover kills a shard leader and verifies the frontend
// fails cc queries over to the replica's local copy, trips the
// breaker, and keeps non-cc queries failing closed with Retry-After.
func TestFrontendFailover(t *testing.T) {
	workers, urls, _ := fastWorkerGroup(t, 2, 902, nil, nil)
	defer workers[1].Close()
	waitReady(t, workers[1])
	fe, err := NewFrontend([][]string{urls})
	if err != nil {
		t.Fatal(err)
	}
	fe.attempts, fe.breakers[0].threshold, fe.breakers[0].cooldown = 1, 2, 200*time.Millisecond
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()

	ring, _ := NewRing(1, 0)
	name := nameOnShard(t, ring, 0)
	cycle := edgeListOf(t, gen.Cycle(64, 3))
	resp, err := http.Post(srv.URL+"/v1/graphs?name="+name, "text/plain", strings.NewReader(cycle))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Kill the leader process (mesh and HTTP endpoint both gone).
	workers[0].Close()

	// cc queries fail over to the replica's local copy.
	for i := 0; i < 3; i++ {
		resp = postJSON(t, srv.URL+"/v1/query", service.QueryRequest{Graph: name, Algorithm: service.AlgCC, Seed: uint64(i + 1)})
		var qr service.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failover cc query %d: status %d", i, resp.StatusCode)
		}
		if qr.Outcome != "failover" || qr.Components == nil || *qr.Components != 1 {
			t.Fatalf("failover cc query %d: outcome %q components %v", i, qr.Outcome, qr.Components)
		}
		if resp.Header.Get("X-Failover") != "1" {
			t.Fatalf("failover reply lacks X-Failover header")
		}
	}

	// The breaker tripped open after the threshold and shows in stats
	// and metrics.
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var fs FrontendStats
	if err := json.NewDecoder(sresp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if fs.Fleet.Failovers != 3 {
		t.Fatalf("failovers = %d, want 3", fs.Fleet.Failovers)
	}
	if fs.Fleet.Breakers[0].State != "open" {
		t.Fatalf("breaker state %q, want open", fs.Fleet.Breakers[0].State)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`camc_breaker_state{shard="0"} 2`,
		"camc_failovers_total 3",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("frontend /metrics missing %q:\n%s", want, mbody)
		}
	}

	// Non-cc queries cannot fail over: 503 + Retry-After, fast (the
	// breaker is open, so no retry budget is burned on the corpse).
	resp = postJSON(t, srv.URL+"/v1/query", service.QueryRequest{Graph: name, Algorithm: service.AlgMinCut})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mincut with dead leader: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 lacks Retry-After")
	}
}

// TestWorkerProbesAndTenantPassthrough pins the probe contract: a
// healthy 1-rank worker answers both probes, and /readyz (like
// /healthz) passes the tenant middleware unauthenticated.
func TestWorkerProbesAndTenantPassthrough(t *testing.T) {
	workers, _, _ := fastWorkerGroup(t, 1, 904, nil, nil)
	defer workers[0].Close()
	reg := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{{Name: "acme", Token: "sekrit"}}})
	srv := httptest.NewServer(service.TenantMiddleware(reg, workers[0].Handler()))
	defer srv.Close()

	for path, want := range map[string]string{"/healthz": "ok", "/readyz": "ready"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != want {
			t.Fatalf("unauthenticated GET %s: status %d body %q, want 200 %q", path, resp.StatusCode, body, want)
		}
	}
	// The API proper still requires a token.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/stats: status %d, want 401", resp.StatusCode)
	}
}

// TestOversizedQueryBody413 pins one answer for a query body over the
// 1 MiB bound on every tier: the frontend's /v1/query, the worker's
// /v1/query and the worker's /v1/local all say 413, not 400.
func TestOversizedQueryBody413(t *testing.T) {
	workers, urls, _ := fastWorkerGroup(t, 1, 905, nil, nil)
	defer workers[0].Close()
	fe, err := NewFrontend([][]string{{urls[0]}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()

	body := `{"graph":"` + strings.Repeat("x", 1<<20) + `","algorithm":"cc"}`
	for _, url := range []string{srv.URL + "/v1/query", urls[0] + "/v1/query", urls[0] + "/v1/local"} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", url, len(body), resp.StatusCode)
		}
	}
}

// TestQueryTrailingBytes400 pins one answer for a query body with bytes
// after its JSON object on every tier — the frontend's /v1/query, the
// worker's /v1/query and the worker's /v1/local: 400 for a second value
// or garbage, 200 for trailing whitespace. A field the request type does
// not have ("kernel", "hedged") is the strict decoder's 400 naming it on
// every tier too; the frontend relays the leader's.
func TestQueryTrailingBytes400(t *testing.T) {
	workers, urls, _ := fastWorkerGroup(t, 1, 905, nil, nil)
	defer workers[0].Close()
	fe, err := NewFrontend([][]string{{urls[0]}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/graphs?name=c", "text/plain", strings.NewReader(edgeListOf(t, gen.Cycle(16, 1))))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	const q = `{"graph":"c","algorithm":"cc"}`
	type reply struct {
		status int
		msg    string // a substring of the reply body
	}
	for _, url := range []string{srv.URL + "/v1/query", urls[0] + "/v1/query", urls[0] + "/v1/local"} {
		for body, want := range map[string]reply{
			q + "\n":          {http.StatusOK, ""},
			q + "garbage":     {http.StatusBadRequest, ""},
			q + `{"graph":1}`: {http.StatusBadRequest, ""},
			`{"graph":"c","algorithm":"cc","kernel":"sampling"}`: {http.StatusBadRequest, `unknown field \"kernel\"`},
			`{"graph":"c","algorithm":"cc","hedged":true}`:       {http.StatusBadRequest, `unknown field \"hedged\"`},
		} {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want.status || !strings.Contains(string(b), want.msg) {
				t.Errorf("POST %s with %q: status %d (%s), want %d with %q", url, body, resp.StatusCode, b, want.status, want.msg)
			}
		}
	}
}

// TestBreakerTransitions unit-tests the breaker state machine.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Second)
	if !b.allow(now) {
		t.Fatal("fresh breaker must be closed")
	}
	b.record(false, now)
	if !b.allow(now) {
		t.Fatal("one failure under threshold must not trip")
	}
	b.record(false, now)
	if b.allow(now) {
		t.Fatal("threshold failures must trip the breaker open")
	}
	if s, _ := b.snapshot(); s != breakerOpen {
		t.Fatalf("state %d, want open", s)
	}
	// Cooldown passes: exactly one probe is admitted.
	later := now.Add(2 * time.Second)
	if !b.allow(later) {
		t.Fatal("cooldown elapsed, probe must be admitted")
	}
	if b.allow(later) {
		t.Fatal("second concurrent probe must be rejected in half-open")
	}
	if s, _ := b.snapshot(); s != breakerHalfOpen {
		t.Fatalf("state %d, want half-open", s)
	}
	// Failed probe re-opens; successful probe closes.
	b.record(false, later)
	if b.allow(later) {
		t.Fatal("failed probe must re-open the breaker")
	}
	even := later.Add(2 * time.Second)
	if !b.allow(even) {
		t.Fatal("second cooldown elapsed")
	}
	b.record(true, even)
	if s, _ := b.snapshot(); s != breakerClosed {
		t.Fatalf("state %d, want closed after successful probe", s)
	}
	if !b.allow(even) {
		t.Fatal("closed breaker must admit")
	}
}

// --- BENCH_fleet.json ---------------------------------------------------

// fleetBenchRecord is the self-healing scorecard CI gates on: the
// scenario is fully scripted (one peer killed, one failover query, two
// graphs behind), so a drifting count means the detection, failover or
// catch-up machinery changed behavior; the wall-clock fields are
// machine-bound.
type fleetBenchRecord struct {
	SuperstepsAborted int
	QueriesFailedOver int
	CatchupGraphs     int
	FingerprintMatch  int
	DetectionMs       float64
	RecoveryMs        float64
}

// runSelfHealScenario executes the scripted kill/failover/respawn
// sequence and returns its scorecard. It mirrors
// TestWorkerReincarnationCatchup + TestFrontendFailover but collects
// counts instead of asserting, so the bench writer and the gate share
// one code path.
func runSelfHealScenario() (rec fleetBenchRecord, err error) {
	fail := func(format string, args ...interface{}) (fleetBenchRecord, error) {
		return rec, fmt.Errorf(format, args...)
	}
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return rec, lerr
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	workers := make([]*Worker, 2)
	werrs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workers[i], werrs[i] = NewWorker(WorkerConfig{
				Rank:              i,
				Addrs:             addrs,
				Epoch:             990,
				Listener:          lns[i],
				Service:           service.Config{Workers: 1, DefaultTimeout: 30 * time.Second},
				HeartbeatInterval: 20 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for _, werr := range werrs {
		if werr != nil {
			return rec, werr
		}
	}
	defer workers[0].Close()

	g := gen.Cycle(64, 3)
	for _, w := range workers {
		if _, perr := w.Engine().Registry().Put("bench", g); perr != nil {
			return rec, perr
		}
	}

	// Kill the peer, then time detection: first query to fail closed.
	workers[1].Close()
	killedAt := time.Now()
	srv := httptest.NewServer(workers[0].Handler())
	defer srv.Close()
	body, _ := json.Marshal(service.QueryRequest{Graph: "bench", Algorithm: service.AlgMinCut})
	resp, qerr := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
	if qerr != nil {
		return rec, qerr
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fail("kill query: status %d, want 503", resp.StatusCode)
	}
	rec.DetectionMs = float64(time.Since(killedAt)) / float64(time.Millisecond)
	rec.SuperstepsAborted = int(workers[0].Engine().Stats().Queries.Totals.TransportLost)

	// Upload lands while the rank is dead.
	if _, perr := workers[0].Engine().Registry().Put("missed", gen.Cycle(48, 2)); perr != nil {
		return rec, perr
	}

	// Respawn with a bumped incarnation; time recovery to ready.
	ln, lerr := net.Listen("tcp", addrs[1])
	if lerr != nil {
		return rec, lerr
	}
	respawnAt := time.Now()
	reborn, rerr := NewWorker(WorkerConfig{
		Rank:              1,
		Addrs:             addrs,
		Epoch:             990,
		Listener:          ln,
		Incarnation:       2,
		Service:           service.Config{Workers: 1, DefaultTimeout: 30 * time.Second},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if rerr != nil {
		return rec, rerr
	}
	defer reborn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for reborn.Ready() != nil && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if rerr := reborn.Ready(); rerr != nil {
		return fail("respawned worker never ready: %v", rerr)
	}
	rec.RecoveryMs = float64(time.Since(respawnAt)) / float64(time.Millisecond)
	rec.CatchupGraphs = int(reborn.FleetStats().CatchupGraphsReceived)

	// Fingerprint check: every (name, version, fingerprint) identical.
	rec.FingerprintMatch = 1
	lead := workers[0].Engine().Registry().List()
	for _, sg := range lead {
		got, gerr := reborn.Engine().Registry().Get(sg.Name)
		if gerr != nil || got.Version != sg.Version || got.Snap.Fingerprint() != sg.Snap.Fingerprint() {
			rec.FingerprintMatch = 0
		}
	}

	// Failover: a frontend over a dead leader URL and the reborn
	// replica answers cc from the local copy.
	deadLeader := httptest.NewServer(http.NotFoundHandler())
	deadLeader.Close() // connection refused from now on
	rebornSrv := httptest.NewServer(reborn.Handler())
	defer rebornSrv.Close()
	fe, ferr := NewFrontend([][]string{{deadLeader.URL, rebornSrv.URL}})
	if ferr != nil {
		return rec, ferr
	}
	fe.attempts = 1
	fsrv := httptest.NewServer(fe.Handler())
	defer fsrv.Close()
	body, _ = json.Marshal(service.QueryRequest{Graph: "bench", Algorithm: service.AlgCC})
	resp, qerr = http.Post(fsrv.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
	if qerr != nil {
		return rec, qerr
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail("failover query: status %d, want 200", resp.StatusCode)
	}
	rec.QueriesFailedOver = int(fe.failovers.Load())
	return rec, nil
}

// TestSelfHealScenarioDeterministic pins the scorecard the bench file
// records: the counts must come out the same on every run.
func TestSelfHealScenarioDeterministic(t *testing.T) {
	rec, err := runSelfHealScenario()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SuperstepsAborted != 1 || rec.QueriesFailedOver != 1 ||
		rec.CatchupGraphs != 2 || rec.FingerprintMatch != 1 {
		t.Fatalf("scenario scorecard %+v, want aborted=1 failedover=1 catchup=2 fpmatch=1", rec)
	}
	if rec.DetectionMs <= 0 || rec.RecoveryMs <= 0 {
		t.Fatalf("wall-clock fields not recorded: %+v", rec)
	}
}

// TestMain writes BENCH_fleet.json whenever benchmarks were requested.
func TestMain(m *testing.M) {
	os.Exit(benchsnap.Main(m.Run, "BENCH_fleet.json", func(snap *benchsnap.Snapshot) error {
		rec, err := runSelfHealScenario()
		if err != nil {
			return err
		}
		snap.Add(benchsnap.Exact, "supersteps_aborted", float64(rec.SuperstepsAborted), 0, 0)
		snap.Add(benchsnap.Exact, "queries_failed_over", float64(rec.QueriesFailedOver), 0, 0)
		snap.Add(benchsnap.Exact, "catchup_graphs", float64(rec.CatchupGraphs), 0, 0)
		snap.Add(benchsnap.Exact, "fingerprint_match", float64(rec.FingerprintMatch), 0, 0)
		snap.Add(benchsnap.Info, "detection_ms", rec.DetectionMs, -1, 0)
		snap.Add(benchsnap.Info, "recovery_ms", rec.RecoveryMs, -1, 0)
		return nil
	}))
}

var _ = transport.CrashExitCode // referenced by the chaos script contract

// TestFailoverAnswersLikeLeader pins the fleet contract that the leader
// and its failover target resolve a request identically: a query the
// leader rejects (a bad parameter) draws the same 400 with the same
// message whether the leader answers it, the replica's /v1/local answers
// it directly, or — leader dead, breaker open — failover answers it.
func TestFailoverAnswersLikeLeader(t *testing.T) {
	workers, urls, _ := fastWorkerGroup(t, 2, 905, nil, nil)
	defer workers[1].Close()
	waitReady(t, workers[1])
	// The leader gets its own HTTP endpoint so the test can take it down
	// with the process: a closed engine behind a live listener would
	// still answer (and reject) requests.
	leaderSrv := httptest.NewServer(workers[0].Handler())
	defer leaderSrv.Close()
	urls[0] = leaderSrv.URL
	fe, err := NewFrontend([][]string{urls})
	if err != nil {
		t.Fatal(err)
	}
	fe.attempts, fe.breakers[0].threshold, fe.breakers[0].cooldown = 1, 1, time.Minute
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()

	ring, _ := NewRing(1, 0)
	name := nameOnShard(t, ring, 0)
	resp, err := http.Post(srv.URL+"/v1/graphs?name="+name, "text/plain", strings.NewReader(edgeListOf(t, gen.Cycle(64, 3))))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	rejected := map[string]service.QueryRequest{
		"bad parameter": {Graph: name, Algorithm: service.AlgCC, Epsilon: 9},
	}
	// ask posts req and returns the status and error message.
	ask := func(url string, req service.QueryRequest) (int, string) {
		t.Helper()
		resp := postJSON(t, url, req)
		defer resp.Body.Close()
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Error
	}
	want := make(map[string]string)
	expect := func(path, url string) {
		t.Helper()
		for what, req := range rejected {
			status, msg := ask(url, req)
			if status != http.StatusBadRequest || msg == "" {
				t.Fatalf("%s, %s: status %d (%q), want 400", path, what, status, msg)
			}
			if want[what] == "" {
				want[what] = msg
			} else if msg != want[what] {
				t.Fatalf("%s, %s: error %q, the leader said %q", path, what, msg, want[what])
			}
		}
	}
	expect("leader up", srv.URL+"/v1/query")
	expect("replica /v1/local", urls[1]+"/v1/local")

	workers[0].Close()
	leaderSrv.Close()
	expect("leader dead", srv.URL+"/v1/query")
	if st := fe.fleetStats().Breakers[0].State; st != "open" {
		t.Fatalf("breaker state %q, want open", st)
	}
	expect("breaker open", srv.URL+"/v1/query")

	// And a request the leader would accept still fails over to a 200.
	resp = postJSON(t, srv.URL+"/v1/query", service.QueryRequest{Graph: name, Algorithm: service.AlgCC, Processors: 4})
	defer resp.Body.Close()
	var qr service.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Outcome != "failover" || qr.Components == nil || *qr.Components != 1 {
		t.Fatalf("valid cc query with the leader dead: status %d outcome %q", resp.StatusCode, qr.Outcome)
	}
}
