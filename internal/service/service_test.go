package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trace"
)

// testGraph builds a random weighted graph plus a Hamiltonian cycle, so
// it is connected and min cut queries have a meaningful answer.
func testGraph(n, m int) *graph.Graph {
	g := gen.ErdosRenyiM(n, m, 7, gen.Config{MaxWeight: 4})
	for v := 0; v < n; v++ {
		g.AddEdge(int32(v), int32((v+1)%n), 1)
	}
	return g
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestRegistryVersioning(t *testing.T) {
	r := NewRegistry()
	g := testGraph(50, 120)
	a, err := r.Put("web", g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 1 || a.Name != "web" {
		t.Fatalf("first put: %+v", a)
	}
	b, err := r.Put("web", g)
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != 2 {
		t.Fatalf("re-put version = %d, want 2", b.Version)
	}
	got, err := r.Get("web")
	if err != nil || got.Version != 2 {
		t.Fatalf("get: %+v, %v", got, err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing graph error = %v", err)
	}
	// Auto-generated names.
	c, err := r.Put("", g)
	if err != nil || c.Name == "" {
		t.Fatalf("auto-name: %+v, %v", c, err)
	}
	if r.Len() != 2 {
		t.Errorf("len = %d", r.Len())
	}
	// An auto-generated name never replaces a graph a caller named.
	named, err := r.Put("g2", testGraph(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Put("", testGraph(12, 20))
	if err != nil || d.Name == "g2" || d.Version != 1 {
		t.Fatalf("auto-name after a taken g2: %+v, %v", d, err)
	}
	if got, err := r.Get("g2"); err != nil || got != named || got.Snap.N() != 10 {
		t.Fatalf("g2 after an unnamed put: %+v, %v", got, err)
	}
	// Invalid graphs are rejected as bad requests.
	bad := &graph.Graph{N: 2, Edges: []graph.Edge{{U: 0, V: 5, W: 1}}}
	if _, err := r.Put("bad", bad); !errors.Is(err, ErrBadRequest) {
		t.Errorf("invalid graph error = %v", err)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	r1, r2, r3 := &QueryResult{}, &QueryResult{}, &QueryResult{}
	r1.Value, r2.Value, r3.Value = 1, 2, 3
	c.put("a", r1)
	c.put("b", r2)
	if got := c.get("a"); got != r1 {
		t.Fatal("miss on fresh entry")
	}
	c.put("c", r3) // evicts b (LRU after a's promotion)
	if c.get("b") != nil {
		t.Error("evicted entry still served")
	}
	if c.get("a") != r1 || c.get("c") != r3 {
		t.Error("survivors lost")
	}
	st := c.stats()
	if st.Size != 2 || st.Evictions != 1 || st.Hits != 3 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Zero capacity stores nothing and never panics.
	z := newLRUCache(0)
	z.put("x", r1)
	if z.get("x") != nil {
		t.Error("zero-capacity cache stored an entry")
	}
}

func TestQueryAlgorithmsAgainstSequentialTruth(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, MaxProcessors: 4})
	g := testGraph(60, 150)
	if _, err := e.Registry().Put("g", g); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ccReply, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgCC})
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, wantCount := graph.BuildCSR(g).ConnectedComponents()
	if ccReply.Result.Components != wantCount {
		t.Errorf("cc components = %d, want %d", ccReply.Result.Components, wantCount)
	}
	if len(ccReply.Result.Labels) != len(wantLabels) {
		t.Errorf("labels length = %d", len(ccReply.Result.Labels))
	}

	mcReply, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgMinCut})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CutValue(mcReply.Result.Side); got != mcReply.Result.Value {
		t.Errorf("mincut side inconsistent: claims %d, evaluates %d", mcReply.Result.Value, got)
	}

	acReply, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgApproxCut})
	if err != nil {
		t.Fatal(err)
	}
	if acReply.Result.Value == 0 {
		t.Error("approxcut estimated 0 for a connected graph")
	}
}

func TestQueryCacheAndVersionInvalidation(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 2})
	g := testGraph(40, 90)
	e.Registry().Put("g", g)

	ctx := context.Background()
	req := QueryRequest{Graph: "g", Algorithm: AlgCC, Seed: 5}
	first, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != trace.OutcomeExecuted {
		t.Fatalf("first outcome = %s", first.Outcome)
	}
	second, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != trace.OutcomeCacheHit {
		t.Fatalf("second outcome = %s, want cache hit", second.Outcome)
	}
	if second.Result != first.Result {
		t.Error("cache returned a different result object")
	}
	// Different seed = different computation = miss.
	third, _ := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgCC, Seed: 6})
	if third.Outcome != trace.OutcomeExecuted {
		t.Errorf("different-seed outcome = %s", third.Outcome)
	}
	// Replacing the graph bumps the version; the stale entry is unreachable.
	g2 := testGraph(40, 90)
	g2.AddEdge(0, 1, 9)
	e.Registry().Put("g", g2)
	fourth, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Outcome != trace.OutcomeExecuted {
		t.Errorf("post-replace outcome = %s, want executed", fourth.Outcome)
	}
	// NoCache bypasses the read path.
	fifth, _ := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgCC, Seed: 5, NoCache: true})
	if fifth.Outcome != trace.OutcomeExecuted {
		t.Errorf("no_cache outcome = %s", fifth.Outcome)
	}
}

// TestThunderingHerdCoalesces is the tentpole acceptance test at engine
// level: 64 concurrent identical queries must trigger exactly one kernel
// execution — one leader, 63 coalesced followers.
func TestThunderingHerdCoalesces(t *testing.T) {
	gate := make(chan struct{})
	var execs int32
	var execMu sync.Mutex
	e := newTestEngine(t, Config{
		Workers:       2,
		QueueBound:    8,
		MaxProcessors: 2,
		BeforeExec: func(string) {
			execMu.Lock()
			execs++
			execMu.Unlock()
			<-gate
		},
	})
	e.Registry().Put("g", testGraph(64, 160))

	const N = 64
	req := QueryRequest{Graph: "g", Algorithm: AlgCC, Seed: 3}
	var wg sync.WaitGroup
	outcomes := make([]string, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := e.Query(context.Background(), req)
			errs[i] = err
			if err == nil {
				outcomes[i] = reply.Outcome
			}
		}(i)
	}
	// Wait until the leader is at the gate and all followers joined.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats()
		if st.CoalescedWaiters == N-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	counts := map[string]int{}
	for _, o := range outcomes {
		counts[o]++
	}
	if counts[trace.OutcomeExecuted] != 1 || counts[trace.OutcomeCoalesced] != N-1 {
		t.Fatalf("outcomes = %v, want 1 executed + %d coalesced", counts, N-1)
	}
	if execs != 1 {
		t.Fatalf("kernel executions = %d, want 1", execs)
	}
	st := e.Stats()
	if st.Queries.Totals.KernelExecutions != 1 || st.Queries.Totals.Coalesced != N-1 {
		t.Errorf("collector totals = %+v", st.Queries.Totals)
	}
	// The herd's result is now cached: one more identical query is a hit.
	reply, err := e.Query(context.Background(), req)
	if err != nil || reply.Outcome != trace.OutcomeCacheHit {
		t.Fatalf("post-herd query: %v, %v", reply, err)
	}
}

// TestAdmissionControlSheds verifies the bounded queue: with one worker
// held at the gate and a full queue, the next distinct query is rejected
// with ErrOverloaded instead of growing the pool.
func TestAdmissionControlSheds(t *testing.T) {
	gate := make(chan struct{})
	e := newTestEngine(t, Config{
		Workers:       1,
		QueueBound:    1,
		MaxProcessors: 1,
		BeforeExec:    func(string) { <-gate },
	})
	e.Registry().Put("g", testGraph(32, 80))

	type result struct {
		reply *Reply
		err   error
	}
	results := make([]chan result, 3)
	// Distinct seeds = distinct computations: no coalescing.
	for i := range results {
		results[i] = make(chan result, 1)
	}
	launch := func(i int, seed uint64) {
		go func() {
			r, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC, Seed: seed})
			results[i] <- result{r, err}
		}()
	}
	// Query 0 occupies the worker (blocked at the gate).
	launch(0, 10)
	waitFor(t, func() bool { return e.Stats().InflightCalls == 1 && e.Stats().QueueDepth == 0 })
	// Query 1 occupies the single queue slot.
	launch(1, 11)
	waitFor(t, func() bool { return e.Stats().QueueDepth == 1 })
	// Query 2 exceeds the bound: shed, synchronously.
	launch(2, 12)
	r2 := <-results[2]
	if !errors.Is(r2.err, ErrOverloaded) {
		t.Fatalf("third query error = %v, want ErrOverloaded", r2.err)
	}
	if st := e.Stats(); st.Queries.Totals.Rejected != 1 {
		t.Errorf("rejected counter = %d", st.Queries.Totals.Rejected)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results[i]
		if r.err != nil {
			t.Fatalf("query %d: %v", i, r.err)
		}
	}
}

func TestQueryDeadline(t *testing.T) {
	gate := make(chan struct{})
	e := newTestEngine(t, Config{
		Workers:       1,
		QueueBound:    4,
		MaxProcessors: 1,
		BeforeExec:    func(string) { <-gate },
	})
	defer close(gate)
	e.Registry().Put("g", testGraph(32, 80))

	// Block the worker, then issue a short-deadline query that must
	// expire while queued.
	go e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC, Seed: 1})
	waitFor(t, func() bool { return e.Stats().InflightCalls == 1 })
	_, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC, Seed: 2, TimeoutMillis: 30})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error = %v, want ErrDeadline", err)
	}
	if st := e.Stats(); st.Queries.Totals.Expired == 0 {
		t.Errorf("expired counter = %+v", st.Queries.Totals)
	}
}

func TestQueryValidation(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	e.Registry().Put("g", testGraph(16, 30))
	ctx := context.Background()
	if _, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: "pagerank"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown algorithm error = %v", err)
	}
	if _, err := e.Query(ctx, QueryRequest{Graph: "missing", Algorithm: AlgCC}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing graph error = %v", err)
	}
	if _, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgMinCut, SuccessProb: 1.5}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad success_prob error = %v", err)
	}
	if _, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: -1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative processors error = %v", err)
	}
}

func TestEngineClose(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	e.Registry().Put("g", testGraph(16, 30))
	e.Close()
	e.Close() // idempotent
	if _, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close query error = %v", err)
	}
}

func TestDegenerateGraphs(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 4})
	ctx := context.Background()

	// Empty graph: zero vertices, zero edges.
	e.Registry().Put("empty", graph.New(0))
	r, err := e.Query(ctx, QueryRequest{Graph: "empty", Algorithm: AlgCC})
	if err != nil || r.Result.Components != 0 {
		t.Errorf("empty cc: %+v, %v", r, err)
	}

	// Edgeless graph with explicit oversized p: trailing ranks hold
	// nothing, kernels must still converge.
	e.Registry().Put("isolated", graph.New(5))
	r, err = e.Query(ctx, QueryRequest{Graph: "isolated", Algorithm: AlgCC, Processors: 4})
	if err != nil || r.Result.Components != 5 {
		t.Errorf("isolated cc: %+v, %v", r, err)
	}
	mc, err := e.Query(ctx, QueryRequest{Graph: "isolated", Algorithm: AlgMinCut, Processors: 4})
	if err != nil || mc.Result.Value != 0 {
		t.Errorf("disconnected mincut: %+v, %v", mc, err)
	}
	ac, err := e.Query(ctx, QueryRequest{Graph: "isolated", Algorithm: AlgApproxCut})
	if err != nil || ac.Result.Value != 0 {
		t.Errorf("disconnected approxcut: %+v, %v", ac, err)
	}

	// Single vertex.
	e.Registry().Put("one", graph.New(1))
	r, err = e.Query(ctx, QueryRequest{Graph: "one", Algorithm: AlgMinCut})
	if err != nil || r.Result.Value != 0 {
		t.Errorf("single-vertex mincut: %+v, %v", r, err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// Exercise the cache key for obvious collisions across parameter axes.
func TestCacheKeyDistinct(t *testing.T) {
	g := testGraph(16, 30)
	sg, _ := NewRegistry().Put("g", g)
	base, _ := normalize(&QueryRequest{Graph: "g", Algorithm: AlgCC})
	keys := map[string]string{}
	add := func(desc, k string) {
		if prev, ok := keys[k]; ok {
			t.Errorf("key collision: %s vs %s (%s)", desc, prev, k)
		}
		keys[k] = desc
	}
	add("base", cacheKey(sg, AlgCC, 2, base))
	add("other alg", cacheKey(sg, AlgMinCut, 2, base))
	add("other p", cacheKey(sg, AlgCC, 4, base))
	seeded := base
	seeded.Seed = 99
	add("other seed", cacheKey(sg, AlgCC, 2, seeded))
	eps := base
	eps.Epsilon = 1.0
	add("other epsilon", cacheKey(sg, AlgCC, 2, eps))
	sg2 := &StoredGraph{Name: sg.Name, Version: sg.Version + 1, Snap: sg.Snap}
	add("other version", cacheKey(sg2, AlgCC, 2, base))
	if len(keys) != 6 {
		t.Errorf("expected 6 distinct keys, got %d", len(keys))
	}
	for k := range keys {
		if !strings.Contains(k, "cc") && !strings.Contains(k, "mincut") {
			t.Errorf("key %q missing algorithm", k)
		}
	}
}
