package mincut

import (
	"sync"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// certifier is the pooled scratch of the sparse certificate: one pass's
// CSR, attachments, heap and class labels, plus the contracted edge
// array the next pass reads. Buffers only grow, so a steady stream of
// same-sized calls allocates nothing.
type certifier struct {
	deg, att   []uint64 // saturated degree / attachment per vertex
	off        []int32  // CSR offsets, len k+1
	adj        []int32  // CSR neighbours
	wt         []uint64 // CSR weights, parallel to adj
	heap, slot []int32  // indexed max-heap on att; slot: heap index, -1 out, -2 scanned
	label      []int32  // class labels
	es         []graph.Edge
	uf         graph.UnionFind
}

var certifierPool = sync.Pool{New: func() any { return new(certifier) }}

// Certify reports whether every cut of g weighs at least bound, and how
// many maximum-adjacency passes it ran to find out. Like cutsAtLeast it
// is a proof, never a guess, it reads no randomness and it does not
// modify g. It works on the sparse edge array, so it suits the whole
// gathered graph where cutsAtLeast's dense matrix would not.
func Certify(g *graph.Graph, bound uint64) (ok bool, passes int) {
	ok, passes, _ = certify(g.N, g.Edges, bound)
	return ok, passes
}

// certifyMinDegree is the min-degree cut of g and whether the
// certificate proves it minimum, its work charged to c.
func certifyMinDegree(c *bsp.Comm, g *graph.Graph) (proven bool, value uint64, side []bool) {
	value, side = minDegreeCut(g)
	proven, _, work := certify(g.N, g.Edges, value)
	c.Ops(work)
	return proven, value, side
}

// certify runs the certificate on pooled scratch.
func certify(n int, edges []graph.Edge, bound uint64) (ok bool, passes int, work uint64) {
	s := certifierPool.Get().(*certifier)
	defer certifierPool.Put(s)
	return s.run(n, edges, bound)
}

// satAdd is x + w capped at bound; it never overflows.
func satAdd(x, w, bound uint64) uint64 {
	if w >= bound-x {
		return bound
	}
	return x + w
}

// run is Nagamochi and Ibaraki's CAPFOREST run to a fixed point. In a
// maximum-adjacency order whose attachments r are capped at bound, an
// edge (x, y) scanned from x while r(y) reaches bound has λ(x, y) ≥
// bound (DESIGN §4 proves the capped form). No cut lighter than bound
// separates such a pair, so one pass unions every one of them, the
// classes contract, and the next pass repeats on the contracted graph;
// reaching one vertex proves every cut ≥ bound. It gives up at the first
// contracted vertex whose degree is below bound (a real cut) or after a
// pass that merges nothing. edges is only read. work counts the vertices
// and adjacency entries the passes touched, for the caller's ledger.
func (s *certifier) run(n int, edges []graph.Edge, bound uint64) (ok bool, passes int, work uint64) {
	if bound == 0 || n <= 1 {
		return true, 0, 0
	}
	for k := n; ; {
		passes++
		work += uint64(k + 2*len(edges))
		if !s.build(k, edges, bound) {
			return false, passes, work
		}
		s.scan(k, bound)
		kk := s.uf.LabelsInto(s.label)
		switch kk {
		case 1:
			return true, passes, work
		case k:
			return false, passes, work
		}
		// Contract: the next pass reads the edges between classes. The
		// first pass reads the caller's array; later ones rewrite s.es in
		// place, never ahead of the read cursor.
		out := s.es[:0]
		for _, e := range edges {
			if u, v := s.label[e.U], s.label[e.V]; u != v {
				out = append(out, graph.Edge{U: u, V: v, W: e.W})
			}
		}
		s.es, edges, k = out, out, kk
	}
}

// build sizes the scratch for k vertices, lays edges out as a CSR and
// reports whether every vertex's degree reaches bound. A loop only pads
// its vertex's degree, which delays a give-up but proves nothing: scan
// never raises an attachment across one.
func (s *certifier) build(k int, edges []graph.Edge, bound uint64) bool {
	s.deg = grow(s.deg, k)
	s.att = grow(s.att, k)
	s.off = grow(s.off, k+1)
	s.heap = grow(s.heap, k)
	s.slot = grow(s.slot, k)
	s.label = grow(s.label, k)
	clear(s.deg)
	clear(s.off)
	for _, e := range edges {
		s.off[e.U+1]++
		s.off[e.V+1]++
		s.deg[e.U] = satAdd(s.deg[e.U], e.W, bound)
		s.deg[e.V] = satAdd(s.deg[e.V], e.W, bound)
	}
	for _, d := range s.deg {
		if d < bound {
			return false
		}
	}
	for v := 0; v < k; v++ {
		s.off[v+1] += s.off[v]
	}
	m2 := int(s.off[k])
	s.adj = grow(s.adj, m2)
	s.wt = grow(s.wt, m2)
	pos := s.heap // free until scan: the fill cursors
	copy(pos, s.off[:k])
	for _, e := range edges {
		s.adj[pos[e.U]], s.wt[pos[e.U]] = e.V, e.W
		pos[e.U]++
		s.adj[pos[e.V]], s.wt[pos[e.V]] = e.U, e.W
		pos[e.V]++
	}
	return true
}

// scan is one capped maximum-adjacency pass over the CSR, unioning in
// s.uf every scanned pair whose attachment reaches bound. A vertex
// enters the heap when an edge first reaches it; when the heap runs dry
// the lowest unscanned vertex starts the next component.
func (s *certifier) scan(k int, bound uint64) {
	s.uf.Reset(k)
	clear(s.att)
	for v := range s.slot {
		s.slot[v] = -1
	}
	h := s.heap[:0]
	next := 0
	for {
		var x int32
		if len(h) == 0 {
			for next < k && s.slot[next] == -2 {
				next++
			}
			if next == k {
				return
			}
			x = int32(next)
		} else {
			x = h[0]
			h = s.popMax(h)
		}
		s.slot[x] = -2
		for i := s.off[x]; i < s.off[x+1]; i++ {
			y := s.adj[i]
			sl := s.slot[y]
			if sl == -2 {
				continue
			}
			if r := s.att[y]; r < bound {
				s.att[y] = satAdd(r, s.wt[i], bound)
				if sl < 0 {
					sl = int32(len(h))
					h = append(h, y)
					s.slot[y] = sl
				}
				s.siftUp(h, sl)
			}
			if s.att[y] >= bound {
				s.uf.Union(x, y)
			}
		}
	}
}

// popMax removes the heap's root and returns the shrunk heap.
func (s *certifier) popMax(h []int32) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	s.slot[h[0]] = 0
	h = h[:last]
	// Sift down.
	i := 0
	for {
		l, best := 2*i+1, i
		if l < len(h) && s.att[h[l]] > s.att[h[best]] {
			best = l
		}
		if r := l + 1; r < len(h) && s.att[h[r]] > s.att[h[best]] {
			best = r
		}
		if best == i {
			return h
		}
		h[i], h[best] = h[best], h[i]
		s.slot[h[i]], s.slot[h[best]] = int32(i), int32(best)
		i = best
	}
}

// siftUp restores the heap above index i after h[i]'s key grew.
func (s *certifier) siftUp(h []int32, i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if s.att[h[p]] >= s.att[h[i]] {
			return
		}
		h[i], h[p] = h[p], h[i]
		s.slot[h[i]], s.slot[h[p]] = i, p
		i = p
	}
}

// grow returns s resized to n, reusing its backing when large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
