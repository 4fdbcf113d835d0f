package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{Tenants: []TenantConfig{
		{Name: "alice", Token: "tok-a", Quotas: Quotas{QPS: 2, Burst: 2, MaxConcurrent: 2, MaxGraphs: 2, MaxBytes: 100}},
		{Name: "bob", Token: "tok-b", Quotas: Quotas{QPS: 1000, MaxConcurrent: 64}},
		{Name: "carol", Token: "tok-c"}, // unlimited everything
	}}
}

// fakeClock is a manually advanced clock for deterministic refill tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestRegistry(t *testing.T) (*Registry, *fakeClock) {
	t.Helper()
	r := NewRegistry(testConfig())
	clk := newFakeClock()
	r.SetNow(clk.now)
	return r, clk
}

func TestParseConfigErrors(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"not json", `{`},
		{"unknown field", `{"tenants":[{"name":"a","token":"t","qps":1}]}`},
		{"no name", `{"tenants":[{"token":"t"}]}`},
		{"no token", `{"tenants":[{"name":"a"}]}`},
		{"dup name", `{"tenants":[{"name":"a","token":"t1"},{"name":"a","token":"t2"}]}`},
		{"dup token", `{"tenants":[{"name":"a","token":"t"},{"name":"b","token":"t"}]}`},
		{"negative quota", `{"tenants":[{"name":"a","token":"t","quotas":{"qps":-1}}]}`},
		{"trailing garbage", `{"tenants":[]}garbage`},
		{"second object", `{"tenants":[]} {"tenants":[]}`},
	} {
		if _, err := ParseConfig(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	good := `{"tenants":[{"name":"a","token":"t","quotas":{"qps":2.5,"max_graphs":3}}]}` + "\n"
	cfg, err := ParseConfig(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 1 || cfg.Tenants[0].Quotas.QPS != 2.5 {
		t.Fatalf("parsed %+v", cfg)
	}
}

func TestAuthenticate(t *testing.T) {
	r, _ := newTestRegistry(t)
	if _, err := r.Authenticate(""); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("empty token: %v", err)
	}
	if _, err := r.Authenticate("nope"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown token: %v", err)
	}
	tn, err := r.Authenticate("tok-a")
	if err != nil || tn.Name() != "alice" {
		t.Fatalf("tok-a -> %v, %v", tn, err)
	}
}

// TestBucketRefillDeterminism pins the token bucket's arithmetic under
// a fake clock: burst drains, refill restores exactly rate*dt tokens,
// and Retry-After reports the exact deficit.
func TestBucketRefillDeterminism(t *testing.T) {
	r, clk := newTestRegistry(t)
	alice, _ := r.Lookup("alice") // 2 QPS, burst 2

	// Drain the burst.
	for i := 0; i < 2; i++ {
		release, _, err := alice.AcquireQuery()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		release()
	}
	// Third request: empty bucket, deficit is exactly half a second at
	// 2 QPS.
	_, retry, err := alice.AcquireQuery()
	if !errors.Is(err, ErrQPS) {
		t.Fatalf("want ErrQPS, got %v", err)
	}
	if retry != 500*time.Millisecond {
		t.Fatalf("retry-after = %v, want 500ms", retry)
	}

	// 250ms restores half a token — still rejected, deficit now 250ms.
	clk.advance(250 * time.Millisecond)
	_, retry, err = alice.AcquireQuery()
	if !errors.Is(err, ErrQPS) || retry != 250*time.Millisecond {
		t.Fatalf("after 250ms: retry=%v err=%v", retry, err)
	}

	// Another 250ms completes the token.
	clk.advance(250 * time.Millisecond)
	release, _, err := alice.AcquireQuery()
	if err != nil {
		t.Fatalf("after refill: %v", err)
	}
	release()

	// A long idle period caps at the burst, never beyond.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		release, _, err := alice.AcquireQuery()
		if err != nil {
			t.Fatalf("post-idle acquire %d: %v", i, err)
		}
		release()
	}
	if _, _, err := alice.AcquireQuery(); !errors.Is(err, ErrQPS) {
		t.Fatalf("burst must cap at 2: %v", err)
	}
}

// TestConcurrencyLimit exhausts the concurrent-query quota without
// touching QPS (slots are released, tokens are not).
func TestConcurrencyLimit(t *testing.T) {
	r, clk := newTestRegistry(t)
	clk.advance(time.Hour)
	bob, _ := r.Lookup("bob") // MaxConcurrent 64
	var releases []func()
	for i := 0; i < 64; i++ {
		release, _, err := bob.AcquireQuery()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		releases = append(releases, release)
	}
	_, retry, err := bob.AcquireQuery()
	if !errors.Is(err, ErrConcurrency) {
		t.Fatalf("want ErrConcurrency, got %v", err)
	}
	if retry <= 0 {
		t.Fatalf("want a positive retry hint, got %v", retry)
	}
	releases[0]()
	releases[0]() // double release must be idempotent
	release, _, err := bob.AcquireQuery()
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	release()
	for _, f := range releases[1:] {
		f()
	}
	snap := r.Snapshot()
	for _, s := range snap {
		if s.Name == "bob" {
			if s.Concurrent != 0 {
				t.Fatalf("concurrent = %d after all releases", s.Concurrent)
			}
			if s.RejectedConcurrency != 1 || s.Admitted != 65 {
				t.Fatalf("counters: %+v", s)
			}
		}
	}
}

// TestTenantIsolation: tenant A exhausting its QPS never throttles B.
func TestTenantIsolation(t *testing.T) {
	r, _ := newTestRegistry(t)
	alice, _ := r.Lookup("alice")
	bob, _ := r.Lookup("bob")
	for {
		_, _, err := alice.AcquireQuery()
		if errors.Is(err, ErrQPS) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		release, _, err := bob.AcquireQuery()
		if err != nil {
			t.Fatalf("bob throttled by alice's exhaustion at %d: %v", i, err)
		}
		release()
	}
}

func TestUploadQuotas(t *testing.T) {
	r, clk := newTestRegistry(t)
	alice, _ := r.Lookup("alice") // MaxGraphs 2, MaxBytes 100
	clk.advance(time.Hour)

	res, _, err := alice.ReserveUpload("g1", 60)
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	clk.advance(time.Second)

	// Byte quota: 60 + 50 > 100.
	if _, _, err := alice.ReserveUpload("g2", 50); !errors.Is(err, ErrByteQuota) {
		t.Fatalf("want ErrByteQuota, got %v", err)
	}
	clk.advance(time.Second)

	// Replacement is charged by delta: replacing g1 with 90 bytes fits.
	res, _, err = alice.ReserveUpload("g1", 90)
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	clk.advance(time.Second)

	// Abort rolls back fully: g2 reserve then abort leaves state as before.
	res, _, err = alice.ReserveUpload("g2", 10)
	if err != nil {
		t.Fatal(err)
	}
	res.Abort()
	clk.advance(time.Second)

	res, _, err = alice.ReserveUpload("g2", 10)
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	clk.advance(time.Second)

	// Graph quota: a third distinct name is over MaxGraphs=2.
	if _, _, err := alice.ReserveUpload("g3", 1); !errors.Is(err, ErrGraphQuota) {
		t.Fatalf("want ErrGraphQuota, got %v", err)
	}

	for _, s := range r.Snapshot() {
		if s.Name != "alice" {
			continue
		}
		if s.Graphs != 2 || s.Bytes != 100 {
			t.Fatalf("alice snapshot: %+v", s)
		}
		if s.RejectedByteQuota != 1 || s.RejectedGraphQuota != 1 {
			t.Fatalf("rejection counters: %+v", s)
		}
	}
}

// TestAbortedReplacementRestoresPrevious: aborting a replacement upload
// must restore the previous size, not delete the graph.
func TestAbortedReplacementRestoresPrevious(t *testing.T) {
	r, clk := newTestRegistry(t)
	carol, _ := r.Lookup("carol")
	clk.advance(time.Hour)
	res, _, err := carol.ReserveUpload("g", 40)
	if err != nil {
		t.Fatal(err)
	}
	res.Commit()
	res, _, err = carol.ReserveUpload("g", 70)
	if err != nil {
		t.Fatal(err)
	}
	res.Abort()
	for _, s := range r.Snapshot() {
		if s.Name == "carol" && (s.Graphs != 1 || s.Bytes != 40) {
			t.Fatalf("carol after aborted replacement: %+v", s)
		}
	}
}

// TestUnlimitedTenant: a tenant with zero-value quotas is never
// throttled.
func TestUnlimitedTenant(t *testing.T) {
	r, _ := newTestRegistry(t)
	carol, _ := r.Lookup("carol")
	for i := 0; i < 1000; i++ {
		release, _, err := carol.AcquireQuery()
		if err != nil {
			t.Fatalf("unlimited tenant throttled at %d: %v", i, err)
		}
		release()
	}
}

// TestConcurrentAcquire hammers one tenant from many goroutines; run
// with -race. Admission arithmetic must stay consistent.
func TestConcurrentAcquire(t *testing.T) {
	r := NewRegistry(Config{Tenants: []TenantConfig{
		{Name: "x", Token: "t", Quotas: Quotas{MaxConcurrent: 8}},
	}})
	x, _ := r.Lookup("x")
	var wg sync.WaitGroup
	var admitted, rejected sync.Map
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				release, _, err := x.AcquireQuery()
				if err != nil {
					rejected.Store([2]int{g, i}, true)
					continue
				}
				admitted.Store([2]int{g, i}, true)
				release()
			}
		}(g)
	}
	wg.Wait()
	for _, s := range r.Snapshot() {
		if s.Concurrent != 0 {
			t.Fatalf("leaked concurrency slots: %+v", s)
		}
		var na, nr int
		admitted.Range(func(any, any) bool { na++; return true })
		rejected.Range(func(any, any) bool { nr++; return true })
		if s.Admitted != uint64(na) || s.RejectedConcurrency != uint64(nr) {
			t.Fatalf("counters %+v vs observed admitted=%d rejected=%d", s, na, nr)
		}
	}
}

// tenantBody is a one-tenant config with the given quotas object.
func tenantBody(quotas string) string {
	return `{"tenants":[{"name":"a","token":"t","quotas":` + quotas + `}]}`
}

// A qps past the int range still defaults to a deep bucket: five
// queries at one instant all pass.
func TestHugeQPSDefaultBurst(t *testing.T) {
	for _, qps := range []string{"1e18", "1e19", "1e300"} {
		cfg, err := ParseConfig(strings.NewReader(tenantBody(`{"qps":` + qps + `}`)))
		if err != nil {
			t.Fatalf("qps %s: %v", qps, err)
		}
		r := NewRegistry(cfg)
		r.SetNow(newFakeClock().now)
		a, _ := r.Lookup("a")
		for i := 0; i < 5; i++ {
			release, _, err := a.AcquireQuery()
			if err != nil {
				t.Fatalf("qps %s: query %d of 5 at one instant: %v", qps, i+1, err)
			}
			release()
		}
	}
}

// FuzzTenantConfig: no config body panics the parser or the registry,
// an accepted body is exactly one JSON value, and an accepted tenant
// with a qps and no burst gets a bucket at least min(⌈qps⌉, MaxInt32)
// deep.
func FuzzTenantConfig(f *testing.F) {
	f.Add([]byte(tenantBody(`{"qps":1e19}`)))
	f.Add([]byte(tenantBody(`{"qps":0.25,"max_concurrent":2}`)))
	f.Add([]byte(tenantBody(`{"qps":2,"burst":3,"max_graphs":1,"max_bytes":100}`)))
	f.Add([]byte(`{"tenants":[{"name":"a","token":"t"},{"name":"b","token":"t"}]}`))
	f.Add([]byte(tenantBody(`{"qps":1}`) + "garbage"))
	f.Add([]byte(tenantBody(`{"qps":1}`) + "{}"))
	f.Add([]byte(tenantBody(`{"qps":1}`) + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, err := ParseConfig(bytes.NewReader(body))
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted %q, which is not one JSON value", body)
		}
		quotas := make(map[string]Quotas, len(cfg.Tenants))
		for _, tc := range cfg.Tenants {
			quotas[tc.Name] = tc.Quotas
		}
		for _, sn := range NewRegistry(cfg).Snapshot() {
			q := quotas[sn.Name]
			if q.QPS <= 0 || q.Burst != 0 {
				continue
			}
			if want := min(math.Ceil(q.QPS), math.MaxInt32); float64(sn.Quotas.Burst) < want {
				t.Fatalf("%s: qps %g defaulted to burst %d, want >= %g", sn.Name, q.QPS, sn.Quotas.Burst, want)
			}
		}
	})
}
