package graph

import "sync"

// Snapshot is an immutable, cheaply shareable view of a graph. The edge
// array is copied exactly once when the snapshot is taken; afterwards any
// number of concurrent readers (HTTP handlers, BSP workers, cache
// entries) may slice it freely without synchronization. A content
// fingerprint identifies the structure, so callers can key caches by
// (id, fingerprint) and never serve results computed on a different
// graph.
//
// Snapshots are the unit the service layer's graph registry hands to the
// query engine: the engine slices Edges() across the virtual processors
// with dist.BlockRange — zero further copies — and the kernels, which
// treat their local edge slices as read-only inputs, run directly on the
// shared storage.
//
// Two facts are filled in later, each once and never changed: the
// connectivity labelling, by the first PlanFacts call, and the
// minimum-cut certificate's outcome (CutFact), by the first warm minimum
// cut.
type Snapshot struct {
	n           int
	edges       []Edge
	totalWeight uint64
	fingerprint uint64
	cut         CutFact

	ccOnce     sync.Once // guards labels and components
	labels     []int32
	components int
}

// Snapshot freezes the current state of g into an immutable view.
// Mutating g afterwards does not affect the snapshot.
func (g *Graph) Snapshot() *Snapshot {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	s := &Snapshot{n: g.N, edges: edges}
	// FNV-1a over (n, edges) — stable across runs, order-sensitive by
	// design (the edge array layout determines the BSP distribution).
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(w uint64) {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(g.N))
	for _, e := range edges {
		mix(uint64(uint32(e.U)))
		mix(uint64(uint32(e.V)))
		mix(e.W)
		s.totalWeight += e.W
	}
	s.fingerprint = h
	return s
}

// N returns the vertex count.
func (s *Snapshot) N() int { return s.n }

// M returns the edge count (parallel edges counted separately).
func (s *Snapshot) M() int { return len(s.edges) }

// TotalWeight returns the sum of all edge weights.
func (s *Snapshot) TotalWeight() uint64 { return s.totalWeight }

// Edges returns the frozen edge array. Callers must treat it as
// read-only; it is shared by every user of the snapshot.
func (s *Snapshot) Edges() []Edge { return s.edges }

// Fingerprint returns the FNV-1a content hash of (n, edges).
func (s *Snapshot) Fingerprint() uint64 { return s.fingerprint }

// Graph returns a *Graph view aliasing the snapshot's storage, for
// passing to APIs that take a graph. The returned graph must not be
// mutated.
func (s *Snapshot) Graph() *Graph { return &Graph{N: s.n, Edges: s.edges} }
