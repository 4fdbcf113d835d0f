// Package service is the in-process graph-analytics serving layer: a
// graph registry holding immutable snapshots, a query engine dispatching
// onto the paper's kernels (connected components §3.2, approximate
// minimum cut §3.3, exact minimum cut §4), an LRU result cache keyed by
// (graph version, algorithm, parameters), and a bounded worker pool with
// admission control and singleflight-style coalescing of identical
// in-flight queries. cmd/camcd exposes it over HTTP.
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound: the named graph is not registered (404).
	ErrNotFound = errors.New("service: graph not found")
	// ErrOverloaded: the scheduler queue is full; the request was shed
	// rather than growing the worker pool (429).
	ErrOverloaded = errors.New("service: overloaded, query rejected")
	// ErrDeadline: the per-request deadline passed before a result was
	// available (504).
	ErrDeadline = errors.New("service: deadline exceeded")
	// ErrBadRequest: invalid algorithm or parameters (400).
	ErrBadRequest = errors.New("service: bad request")
	// ErrClosed: the engine is shutting down (503).
	ErrClosed = errors.New("service: engine closed")
	// ErrCancelled: the kernel was cancelled mid-run — deadline fired or
	// every waiter abandoned the call — and no partial answer was
	// available (408).
	ErrCancelled = errors.New("service: query cancelled")
	// ErrFaulted: the kernel faulted (processor panic) and the bounded
	// retry failed too; the query may succeed if retried later (503).
	ErrFaulted = errors.New("service: query faulted")
	// ErrTransport: a peer worker connection was lost mid-run (or could
	// not be established) and the bounded retry failed too. Distinct from
	// ErrFaulted so operators can tell a sick fabric from a sick kernel,
	// but mapped the same way: 503 with Retry-After, never cached.
	ErrTransport = errors.New("service: transport failure")
)

// StoredGraph is one registered graph version: an immutable snapshot
// plus registry identity, and the query plans built on it (see plan.go),
// one per machine size. Re-registering under the same name creates a new
// StoredGraph with Version bumped, which invalidates cache keys without
// any explicit cache flush and leaves the old version's plans to go with
// it.
type StoredGraph struct {
	Name    string
	Version uint64
	Snap    *graph.Snapshot

	mu    sync.Mutex
	plans map[int]*planSlot // by machine size
}

// Registry maps names to graph snapshots. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*StoredGraph
	nextID uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*StoredGraph)}
}

// Put registers (or replaces) a graph under name and returns its stored
// form. An empty name auto-generates an unused one ("g1", "g2", ...,
// skipping any a caller already took). The graph is
// validated and snapshotted; the caller's graph may be mutated freely
// afterwards.
func (r *Registry) Put(name string, g *graph.Graph) (*StoredGraph, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadRequest)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	snap := g.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" {
		for name == "" || r.graphs[name] != nil {
			r.nextID++
			name = fmt.Sprintf("g%d", r.nextID)
		}
	}
	version := uint64(1)
	if prev, ok := r.graphs[name]; ok {
		version = prev.Version + 1
	}
	sg := &StoredGraph{Name: name, Version: version, Snap: snap}
	r.graphs[name] = sg
	return sg, nil
}

// PutVersion registers g under name at an exact version — the
// re-replication primitive: a catch-up transfer must reproduce the
// leader's (name, version) identity bit-for-bit so cache keys and
// fingerprints agree across replicas, which Put's auto-increment cannot
// guarantee after a replica missed uploads while dead. A registration
// already at or past version is rejected (the replica is not behind;
// clobbering it would move version numbers backwards).
func (r *Registry) PutVersion(name string, version uint64, g *graph.Graph) (*StoredGraph, error) {
	if name == "" || version == 0 {
		return nil, fmt.Errorf("%w: PutVersion needs an explicit name and version", ErrBadRequest)
	}
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadRequest)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	snap := g.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.graphs[name]; ok && prev.Version >= version {
		return nil, fmt.Errorf("%w: %q already at version %d (catch-up offered %d)",
			ErrBadRequest, name, prev.Version, version)
	}
	sg := &StoredGraph{Name: name, Version: version, Snap: snap}
	r.graphs[name] = sg
	return sg, nil
}

// Get returns the graph registered under name.
func (r *Registry) Get(name string) (*StoredGraph, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sg, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return sg, nil
}

// List returns every registered graph, sorted by name — the catch-up
// protocol's inventory view (a rejoining replica diffs it against the
// leader's to find what it missed).
func (r *Registry) List() []*StoredGraph {
	r.mu.RLock()
	out := make([]*StoredGraph, 0, len(r.graphs))
	for _, sg := range r.graphs {
		out = append(out, sg)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}
