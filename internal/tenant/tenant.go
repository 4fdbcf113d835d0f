// Package tenant is the multi-tenant admission layer for the serving
// tier: API-token authentication plus per-tenant quotas — registered
// graphs, stored bytes, concurrent queries, and a token-bucket QPS
// limit. It deliberately knows nothing about HTTP or the query engine;
// internal/service wires it in front of the API, and the same registry
// drives the quota sections of /v1/stats and /metrics.
//
// All quota state lives behind one mutex per tenant: the enforcement
// path is a handful of compares and adds, cheap next to even a cached
// query. The clock is injectable so the token-bucket refill is exactly
// testable; see SetNow.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Enforcement errors. ErrUnauthorized maps to 401; the quota errors all
// map to 429 with a Retry-After hint.
var (
	ErrUnauthorized = errors.New("tenant: unknown or missing API token")
	ErrQPS          = errors.New("tenant: request rate over quota")
	ErrConcurrency  = errors.New("tenant: concurrent query limit reached")
	ErrGraphQuota   = errors.New("tenant: graph count quota exhausted")
	ErrByteQuota    = errors.New("tenant: graph byte quota exhausted")
)

// Quotas bounds one tenant's footprint. Zero values mean unlimited, so
// a config can constrain only the dimensions it cares about.
type Quotas struct {
	// MaxGraphs caps the number of graphs registered by the tenant.
	MaxGraphs int `json:"max_graphs,omitempty"`
	// MaxBytes caps the total upload bytes of the tenant's live graphs
	// (a replacement upload is charged by its delta).
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// MaxConcurrent caps in-flight queries.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// QPS is the token-bucket refill rate in requests per second; Burst
	// is the bucket depth (default: ceil(QPS), at most MaxInt32). QPS 0 =
	// unlimited.
	QPS   float64 `json:"qps,omitempty"`
	Burst int     `json:"burst,omitempty"`
}

// TenantConfig is one tenant entry of the config file.
type TenantConfig struct {
	Name   string `json:"name"`
	Token  string `json:"token"`
	Quotas Quotas `json:"quotas"`
}

// Config is the on-disk configuration: a list of tenants.
type Config struct {
	Tenants []TenantConfig `json:"tenants"`
}

// ParseConfig reads and validates a JSON config.
func ParseConfig(r io.Reader) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("tenant: bad config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return Config{}, fmt.Errorf("tenant: bad config: trailing data after the object: %w", err)
	}
	names := make(map[string]bool, len(cfg.Tenants))
	tokens := make(map[string]bool, len(cfg.Tenants))
	for i, tc := range cfg.Tenants {
		switch {
		case tc.Name == "":
			return Config{}, fmt.Errorf("tenant: config entry %d has no name", i)
		case tc.Token == "":
			return Config{}, fmt.Errorf("tenant: %q has no token", tc.Name)
		case names[tc.Name]:
			return Config{}, fmt.Errorf("tenant: duplicate name %q", tc.Name)
		case tokens[tc.Token]:
			return Config{}, fmt.Errorf("tenant: duplicate token (on %q)", tc.Name)
		case tc.Quotas.QPS < 0 || tc.Quotas.Burst < 0 ||
			tc.Quotas.MaxGraphs < 0 || tc.Quotas.MaxBytes < 0 || tc.Quotas.MaxConcurrent < 0:
			return Config{}, fmt.Errorf("tenant: %q has a negative quota", tc.Name)
		}
		names[tc.Name] = true
		tokens[tc.Token] = true
	}
	return cfg, nil
}

// LoadConfig reads a config file.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// Registry authenticates tokens and enforces quotas. Safe for
// concurrent use.
type Registry struct {
	now     func() time.Time
	byToken map[string]*Tenant
	names   []string // sorted, for deterministic snapshots
	byName  map[string]*Tenant
}

// NewRegistry builds a registry from a validated config.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		now:     time.Now,
		byToken: make(map[string]*Tenant, len(cfg.Tenants)),
		byName:  make(map[string]*Tenant, len(cfg.Tenants)),
	}
	for _, tc := range cfg.Tenants {
		q := tc.Quotas
		if q.QPS > 0 && q.Burst == 0 {
			// Clamped in float64 first: converting a float beyond the int
			// range is implementation-defined (MinInt64 on amd64).
			q.Burst = int(min(math.Ceil(q.QPS), math.MaxInt32))
		}
		t := &Tenant{
			name:   tc.Name,
			quotas: q,
			reg:    r,
			tokens: float64(q.Burst),
			graphs: make(map[string]int64),
		}
		r.byToken[tc.Token] = t
		r.byName[tc.Name] = t
		r.names = append(r.names, tc.Name)
	}
	sort.Strings(r.names)
	return r
}

// SetNow replaces the registry clock (tests). Refill arithmetic uses
// only differences of the injected clock, so a fake clock makes the
// token bucket fully deterministic.
func (r *Registry) SetNow(now func() time.Time) {
	r.now = now
	for _, t := range r.byName {
		t.mu.Lock()
		t.last = time.Time{} // re-anchor on first use of the new clock
		t.mu.Unlock()
	}
}

// Authenticate resolves an API token. An empty or unknown token is
// ErrUnauthorized.
func (r *Registry) Authenticate(token string) (*Tenant, error) {
	if t, ok := r.byToken[token]; ok && token != "" {
		return t, nil
	}
	return nil, ErrUnauthorized
}

// Lookup resolves a tenant by name (stats and tests).
func (r *Registry) Lookup(name string) (*Tenant, bool) {
	t, ok := r.byName[name]
	return t, ok
}

// Tenant is one authenticated principal's live quota state.
type Tenant struct {
	name   string
	quotas Quotas
	reg    *Registry

	mu         sync.Mutex
	tokens     float64   // current bucket level
	last       time.Time // last refill instant (zero until first use)
	concurrent int
	graphs     map[string]int64 // name -> reserved+committed bytes
	bytes      int64

	admitted       uint64
	rejQPS         uint64
	rejConcurrency uint64
	rejGraphs      uint64
	rejBytes       uint64
}

// Name returns the tenant's configured name.
func (t *Tenant) Name() string { return t.name }

// refillLocked advances the token bucket to now. Call with mu held.
func (t *Tenant) refillLocked(now time.Time) {
	if t.quotas.QPS <= 0 {
		return
	}
	if t.last.IsZero() {
		t.last = now
		return
	}
	if dt := now.Sub(t.last); dt > 0 {
		t.tokens += dt.Seconds() * t.quotas.QPS
		if max := float64(t.quotas.Burst); t.tokens > max {
			t.tokens = max
		}
		t.last = now
	}
}

// AcquireQuery admits one query: a QPS token plus a concurrency slot.
// On success the returned release frees the slot (call it exactly once,
// when the query finishes). On failure release is nil, retryAfter hints
// how long until the request could succeed, and err is ErrQPS or
// ErrConcurrency.
func (t *Tenant) AcquireQuery() (release func(), retryAfter time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.reg.now()
	t.refillLocked(now)
	if t.quotas.QPS > 0 && t.tokens < 1 {
		t.rejQPS++
		return nil, t.deficitLocked(), ErrQPS
	}
	if t.quotas.MaxConcurrent > 0 && t.concurrent >= t.quotas.MaxConcurrent {
		t.rejConcurrency++
		// No refill clue here: a slot frees when some in-flight query
		// finishes; 1s is the conventional "shortly".
		return nil, time.Second, ErrConcurrency
	}
	if t.quotas.QPS > 0 {
		t.tokens--
	}
	t.concurrent++
	t.admitted++
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.concurrent--
			t.mu.Unlock()
		})
	}, 0, nil
}

// deficitLocked is the time until the bucket holds one whole token.
func (t *Tenant) deficitLocked() time.Duration {
	need := 1 - t.tokens
	if need <= 0 {
		return 0
	}
	return time.Duration(need / t.quotas.QPS * float64(time.Second))
}

// UploadReservation holds tentatively charged graph/byte quota for one
// in-flight upload. Exactly one of Commit or Abort must be called.
type UploadReservation struct {
	t        *Tenant
	name     string
	newBytes int64
	prev     int64 // bytes previously committed under name (replacement)
	existed  bool
	done     bool
}

// ReserveUpload charges an upload of size bytes under the graph name
// against the tenant's quotas (and one QPS token). A replacement of an
// existing name is charged by its byte delta and does not consume a
// graph slot. The reservation keeps concurrent uploads honest: the
// quota is held from reserve to Commit/Abort.
func (t *Tenant) ReserveUpload(name string, bytes int64) (res *UploadReservation, retryAfter time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.reg.now()
	t.refillLocked(now)
	if t.quotas.QPS > 0 && t.tokens < 1 {
		t.rejQPS++
		return nil, t.deficitLocked(), ErrQPS
	}
	prev, existed := t.graphs[name]
	if !existed && t.quotas.MaxGraphs > 0 && len(t.graphs) >= t.quotas.MaxGraphs {
		t.rejGraphs++
		return nil, time.Second, ErrGraphQuota
	}
	if t.quotas.MaxBytes > 0 && t.bytes-prev+bytes > t.quotas.MaxBytes {
		t.rejBytes++
		return nil, time.Second, ErrByteQuota
	}
	if t.quotas.QPS > 0 {
		t.tokens--
	}
	t.admitted++
	// Reserve: the new size is charged now so a racing upload sees it;
	// Abort rolls it back, Commit makes it the graph's record.
	t.bytes += bytes - prev
	t.graphs[name] = bytes
	return &UploadReservation{t: t, name: name, newBytes: bytes, prev: prev, existed: existed}, 0, nil
}

// Commit finalizes the reservation (the upload was accepted).
func (r *UploadReservation) Commit() {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	r.done = true
}

// Abort rolls the reservation back (the upload was rejected upstream).
func (r *UploadReservation) Abort() {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	r.t.bytes += r.prev - r.newBytes
	if r.existed {
		r.t.graphs[r.name] = r.prev
	} else {
		delete(r.t.graphs, r.name)
	}
}

// TenantSnapshot is one tenant's quota state, JSON-ready for /v1/stats
// and rendered into /metrics.
type TenantSnapshot struct {
	Name                string  `json:"name"`
	Graphs              int     `json:"graphs"`
	Bytes               int64   `json:"bytes"`
	Concurrent          int     `json:"concurrent"`
	QPSTokens           float64 `json:"qps_tokens"`
	Admitted            uint64  `json:"admitted"`
	RejectedQPS         uint64  `json:"rejected_qps"`
	RejectedConcurrency uint64  `json:"rejected_concurrency"`
	RejectedGraphQuota  uint64  `json:"rejected_graph_quota"`
	RejectedByteQuota   uint64  `json:"rejected_byte_quota"`
	Quotas              Quotas  `json:"quotas"`
}

// Snapshot returns the per-tenant quota state, sorted by tenant name.
func (r *Registry) Snapshot() []TenantSnapshot {
	out := make([]TenantSnapshot, 0, len(r.names))
	now := r.now()
	for _, name := range r.names {
		t := r.byName[name]
		t.mu.Lock()
		t.refillLocked(now)
		out = append(out, TenantSnapshot{
			Name:                t.name,
			Graphs:              len(t.graphs),
			Bytes:               t.bytes,
			Concurrent:          t.concurrent,
			QPSTokens:           t.tokens,
			Admitted:            t.admitted,
			RejectedQPS:         t.rejQPS,
			RejectedConcurrency: t.rejConcurrency,
			RejectedGraphQuota:  t.rejGraphs,
			RejectedByteQuota:   t.rejBytes,
			Quotas:              t.quotas,
		})
		t.mu.Unlock()
	}
	return out
}
