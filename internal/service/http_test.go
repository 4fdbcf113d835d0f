package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

func uploadBody(t *testing.T, g *graph.Graph) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func postJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPUploadQueryStats(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, MaxProcessors: 2})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Liveness first.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v, %v", resp, err)
	}
	resp.Body.Close()

	// Upload.
	g := testGraph(50, 120)
	resp, err = http.Post(srv.URL+"/v1/graphs?name=web", "text/plain", uploadBody(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, b)
	}
	var info GraphInfo
	decode(t, resp, &info)
	if info.Name != "web" || info.Version != 1 || info.N != 50 || info.M != g.M() {
		t.Fatalf("upload info = %+v", info)
	}

	// Query with labels.
	resp = postJSON(t, srv.URL+"/v1/query", QueryRequest{
		Graph: "web", Algorithm: AlgCC, IncludeLabels: true,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, b)
	}
	var qr QueryResponse
	decode(t, resp, &qr)
	if qr.Algorithm != AlgCC || qr.Components == nil || *qr.Components != 1 {
		t.Fatalf("cc response = %+v", qr)
	}
	if len(qr.Labels) != 50 {
		t.Errorf("labels = %d entries", len(qr.Labels))
	}
	if qr.Kernel.P < 1 {
		t.Errorf("kernel stats = %+v", qr.Kernel)
	}

	// Min cut with side.
	resp = postJSON(t, srv.URL+"/v1/query", QueryRequest{
		Graph: "web", Algorithm: AlgMinCut, IncludeSide: true,
	})
	decode(t, resp, &qr)
	if qr.Value == nil {
		t.Fatalf("mincut response = %+v", qr)
	}
	if len(qr.Side) == 0 || len(qr.Side) > 25 {
		t.Errorf("side = %v (want nonempty smaller shore)", qr.Side)
	}

	// Stats reflect the work.
	var st EngineStats
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &st)
	if st.Graphs != 1 || st.Queries.Totals.KernelExecutions != 2 {
		t.Errorf("stats = graphs %d, totals %+v", st.Graphs, st.Queries.Totals)
	}
}

// TestHTTPUploadHugeEdgeCountHeader: the edge-list header's edge count
// comes from the client, so a 19-byte body claiming five billion edges
// must get an answer — not an allocation that kills the process — and
// the engine must go on serving.
func TestHTTPUploadHugeEdgeCountHeader(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/graphs?name=tiny", "text/plain", strings.NewReader("2 5000000000\n0 1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, b)
	}
	var info GraphInfo
	decode(t, resp, &info)
	if info.N != 2 || info.M != 1 {
		t.Fatalf("upload info = %+v", info)
	}

	resp = postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "tiny", Algorithm: AlgCC})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, b)
	}
	var qr QueryResponse
	decode(t, resp, &qr)
	if qr.Components == nil || *qr.Components != 1 {
		t.Fatalf("cc response = %+v", qr)
	}
}

// TestHTTPApproxCutHugeTrials: an approximate cut reserves a buffer in
// proportion to its trial count before the first draw, so a query
// asking for a hundred million trials must be refused — not served by
// an allocation that kills the process — and the engine must go on
// serving.
func TestHTTPApproxCutHugeTrials(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	const n = 200
	var ring strings.Builder
	fmt.Fprintf(&ring, "%d %d\n", n, n)
	for v := 0; v < n; v++ {
		fmt.Fprintf(&ring, "%d %d 1\n", v, (v+1)%n)
	}
	resp, err := http.Post(srv.URL+"/v1/graphs?name=ring", "text/plain", strings.NewReader(ring.String()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, b)
	}
	resp.Body.Close()

	body := `{"graph":"ring","algorithm":"approxcut","trials":100000000,"pipelined":true,"processors":1}`
	resp, err = http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge trials: status %d: %s", resp.StatusCode, b)
	}

	resp = postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "ring", Algorithm: AlgApproxCut, Pipelined: true, Processors: 1})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("follow-up query status %d: %s", resp.StatusCode, b)
	}
	var qr QueryResponse
	decode(t, resp, &qr)
	if qr.Value == nil || *qr.Value == 0 {
		t.Fatalf("approxcut response = %+v", qr)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	cases := []struct {
		desc string
		do   func() *http.Response
		want int
	}{
		{"malformed upload", func() *http.Response {
			r, _ := http.Post(srv.URL+"/v1/graphs", "text/plain", strings.NewReader("2 1\n0 torn"))
			return r
		}, http.StatusBadRequest},
		{"negative endpoint upload", func() *http.Response {
			r, _ := http.Post(srv.URL+"/v1/graphs", "text/plain", strings.NewReader("2 1\n-1 1 1\n"))
			return r
		}, http.StatusBadRequest},
		{"bad format", func() *http.Response {
			r, _ := http.Post(srv.URL+"/v1/graphs?format=xml", "text/plain", strings.NewReader("x"))
			return r
		}, http.StatusBadRequest},
		{"unknown graph", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "ghost", Algorithm: AlgCC})
		}, http.StatusNotFound},
		{"unknown algorithm", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "ghost", Algorithm: "bfs"})
		}, http.StatusBadRequest},
		{"bad query json", func() *http.Response {
			r, _ := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
			return r
		}, http.StatusBadRequest},
		{"unknown query field", func() *http.Response {
			r, _ := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(`{"grph":"g"}`))
			return r
		}, http.StatusBadRequest},
		{"GET on query", func() *http.Response {
			r, _ := http.Get(srv.URL + "/v1/query")
			return r
		}, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp := c.do()
		if resp == nil {
			t.Fatalf("%s: no response", c.desc)
		}
		if resp.StatusCode != c.want {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status %d, want %d (%s)", c.desc, resp.StatusCode, c.want, b)
		}
		resp.Body.Close()
	}
}

// A kernel pin that names no member of the algorithm's table — a typo,
// or a member the table no longer has — is a 400 whose message lists the
// valid members.
func TestHTTPUnknownKernelPin(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	if _, err := e.Registry().Put("g", testGraph(40, 100)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	for _, c := range []struct{ alg, kernel, want string }{
		{AlgCC, "shared", `unknown kernel "shared" for algorithm "cc" (have: sampling, lowround)`},
		{AlgCC, "labelprop", `unknown kernel "labelprop" for algorithm "cc" (have: sampling, lowround)`},
		{AlgMinCut, "stoerwagner", `unknown kernel "stoerwagner" for algorithm "mincut" (have: kargerstein)`},
	} {
		resp := postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "g", Algorithm: c.alg, Kernel: c.kernel})
		var body struct{ Error string }
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, c.want) {
			t.Errorf("%s pin %q: status %d, error %q (%v); want 400 with %q", c.alg, c.kernel, resp.StatusCode, body.Error, err, c.want)
		}
	}
}

// TestHTTPEndToEndCoalescingAndShedding is the acceptance scenario over
// the wire: upload a graph, issue 64 concurrent identical CC queries and
// observe exactly one kernel execution via /v1/stats, then overflow the
// queue and observe 429.
func TestHTTPEndToEndCoalescingAndShedding(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	execs := 0
	e := newTestEngine(t, Config{
		Workers:       1,
		QueueBound:    1,
		MaxProcessors: 2,
		BeforeExec: func(string) {
			mu.Lock()
			execs++
			mu.Unlock()
			<-gate
		},
	})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/graphs?name=herd", "text/plain", uploadBody(t, testGraph(64, 160)))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	const N = 64
	req := QueryRequest{Graph: "herd", Algorithm: AlgCC, Seed: 9}
	statuses := make([]int, N)
	outcomes := make([]string, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, srv.URL+"/v1/query", req)
			statuses[i] = resp.StatusCode
			var qr QueryResponse
			decode(t, resp, &qr)
			outcomes[i] = qr.Outcome
		}(i)
	}

	// Wait (via the public stats endpoint) until the one leader is
	// executing and all 63 followers have coalesced onto it.
	waitFor(t, func() bool {
		var st EngineStats
		r, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			return false
		}
		decode(t, r, &st)
		return st.CoalescedWaiters == N-1
	})

	// While the worker is held by the herd leader, a *distinct* query
	// fills the single queue slot (it blocks until the gate opens, so it
	// runs in the background)...
	fillerDone := make(chan *http.Response, 1)
	go func() {
		fillerDone <- postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "herd", Algorithm: AlgCC, Seed: 1000})
	}()
	waitFor(t, func() bool {
		var st EngineStats
		r, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			return false
		}
		decode(t, r, &st)
		return st.QueueDepth == 1
	})
	// ...and the next distinct query exceeds the bound: shed with 429,
	// synchronously, without growing the pool.
	shed := postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "herd", Algorithm: AlgCC, Seed: 2000})
	if shed.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(shed.Body)
		t.Fatalf("overload status = %d (%s), want 429", shed.StatusCode, b)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	shed.Body.Close()

	close(gate)
	wg.Wait()
	if filler := <-fillerDone; filler.StatusCode != http.StatusOK {
		t.Fatalf("filler query status %d", filler.StatusCode)
	} else {
		filler.Body.Close()
	}

	for i, s := range statuses {
		if s != http.StatusOK {
			t.Fatalf("herd query %d: status %d", i, s)
		}
	}
	counts := map[string]int{}
	for _, o := range outcomes {
		counts[o]++
	}
	if counts["executed"] != 1 || counts["coalesced"] != N-1 {
		t.Fatalf("herd outcomes = %v", counts)
	}

	// The /v1/stats counters prove single execution + coalescing + shed.
	var st EngineStats
	r, _ := http.Get(srv.URL + "/v1/stats")
	decode(t, r, &st)
	cc := st.Queries.Algorithms["cc"]
	if cc.Coalesced != N-1 {
		t.Errorf("stats coalesced = %d, want %d", cc.Coalesced, N-1)
	}
	if cc.Rejected == 0 {
		t.Errorf("stats rejected = %d, want ≥ 1", cc.Rejected)
	}
	mu.Lock()
	herdExecs := execs
	mu.Unlock()
	// The gate admitted the herd leader and possibly the filler query —
	// never more.
	if herdExecs < 1 || herdExecs > 2 {
		t.Fatalf("kernel executions = %d, want 1 (+1 filler at most)", herdExecs)
	}

	// And the herd's answer is now cached.
	resp = postJSON(t, srv.URL+"/v1/query", req)
	var qr QueryResponse
	decode(t, resp, &qr)
	if qr.Outcome != "cache_hit" {
		t.Errorf("post-herd outcome = %q, want cache_hit", qr.Outcome)
	}
	if err := fmtCheck(outcomes); err != nil {
		t.Error(err)
	}
}

// fmtCheck asserts every herd response carried a well-formed outcome.
func fmtCheck(outcomes []string) error {
	for i, o := range outcomes {
		if o != "executed" && o != "coalesced" {
			return fmt.Errorf("query %d outcome %q", i, o)
		}
	}
	return nil
}

func TestHTTPStatsServesCollectorJSON(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/graphs?name=g", "text/plain", uploadBody(t, testGraph(20, 40)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "g", Algorithm: AlgApproxCut}).Body.Close()
	postJSON(t, srv.URL+"/v1/query", QueryRequest{Graph: "g", Algorithm: AlgApproxCut}).Body.Close()

	r, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var st EngineStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, raw)
	}
	ac := st.Queries.Algorithms["approxcut"]
	if ac.Queries != 2 || ac.KernelExecutions != 1 || ac.CacheHits != 1 {
		t.Errorf("approxcut stats = %+v", ac)
	}
	if st.Workers != 1 || st.QueueCapacity == 0 {
		t.Errorf("gauges = %+v", st)
	}
	if !strings.Contains(string(raw), "avg_latency_ms") {
		t.Error("stats JSON missing latency aggregates")
	}
	if time.Duration(st.UptimeMs*float64(time.Millisecond)) <= 0 {
		t.Error("uptime not positive")
	}
}
