package cachesim

import (
	"math"

	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
)

// The kernels below replay the memory access patterns of the compared
// implementations against the simulated cache while computing the real
// results (so tests can validate them). Word layout: vertex ids and
// labels are one word; an edge is three words.

// BFSCC replays the sequential traversal baseline (BGL's linear-time
// connected components): CSR adjacency scans plus one random label access
// per edge endpoint. Returns the component count.
func BFSCC(c *Cache, g *graph.Graph) int {
	csr := graph.BuildCSR(g)
	n := g.N
	offBase := c.Alloc(n + 1)
	adjBase := c.Alloc(len(csr.Adj))
	labBase := c.Alloc(n)
	stkBase := c.Alloc(n)

	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int32
	count := 0
	for s := int32(0); int(s) < n; s++ {
		c.Access(labBase + uint64(s)) // probe
		c.Ops(2)
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(count)
		stack = append(stack[:0], s)
		c.Access(stkBase)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c.Access(stkBase + uint64(len(stack))%uint64(cap(stack)+1))
			c.AccessRange(offBase+uint64(v), 2) // offset[v], offset[v+1]
			lo, hi := csr.Offset[v], csr.Offset[v+1]
			c.AccessRange(adjBase+uint64(lo), uint64(hi-lo))
			c.Ops(uint64(hi-lo) + 4)
			for _, w := range csr.Adj[lo:hi] {
				c.Access(labBase + uint64(w)) // random label probe
				c.Ops(3)
				if labels[w] < 0 {
					labels[w] = int32(count)
					c.Access(labBase + uint64(w)) // write
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return count
}

// ufSim is a union-find whose parent-array accesses are charged to the
// cache.
type ufSim struct {
	c      *Cache
	base   uint64
	parent []int32
	rank   []int8
	count  int
}

func newUFSim(c *Cache, n int) *ufSim {
	u := &ufSim{c: c, base: c.Alloc(2 * n), parent: make([]int32, n), rank: make([]int8, n), count: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *ufSim) find(x int32) int32 {
	root := x
	for {
		u.c.Access(u.base + uint64(root))
		u.c.Ops(2)
		if u.parent[root] == root {
			break
		}
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.c.Access(u.base + uint64(x))
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

func (u *ufSim) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.c.Access(u.base + uint64(rb))
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	u.c.Ops(4)
	return true
}

// UnionFindCC replays the asynchronous shared-memory baseline's
// sequential access pattern (Galois-style): one union per edge over a
// randomly accessed parent array, scanning the edge array once.
func UnionFindCC(c *Cache, g *graph.Graph) int {
	edgeBase := c.Alloc(3 * len(g.Edges))
	uf := newUFSim(c, g.N)
	for i, e := range g.Edges {
		c.AccessRange(edgeBase+uint64(3*i), 3)
		c.Ops(3)
		uf.union(e.U, e.V)
	}
	return uf.count
}

// SamplingCC replays the paper's iterated-sampling connected components
// (§3.2) run sequentially: per round, s random probes into the edge
// array, union-find over the sample, then one sequential relabelling scan
// of the remaining edges. Returns the component count.
func SamplingCC(c *Cache, g *graph.Graph, st *rng.Stream, epsilon float64) int {
	n := g.N
	edges := append([]graph.Edge(nil), g.Edges...)
	edgeBase := c.Alloc(3 * len(edges))
	labBase := c.Alloc(n)

	comp := make([]int32, n)
	for i := range comp {
		comp[i] = int32(i)
	}
	s := int(math.Ceil(math.Pow(float64(n), 1+epsilon/2)))
	for len(edges) > 0 {
		uf := newUFSim(c, n)
		// Sample s edges (uniform with replacement; random probes).
		take := s
		if take > 2*len(edges) {
			take = len(edges)
			// Whole-slice regime: sequential scan instead of probes.
			c.AccessRange(edgeBase, uint64(3*len(edges)))
			c.Ops(uint64(len(edges)))
			for _, e := range edges {
				uf.union(e.U, e.V)
			}
		} else {
			for k := 0; k < take; k++ {
				i := st.Intn(len(edges))
				c.AccessRange(edgeBase+uint64(3*i), 3)
				c.Ops(4)
				uf.union(edges[i].U, edges[i].V)
			}
		}
		// Dense labelling + label-array update.
		labels := make([]int32, n)
		next := int32(0)
		seen := make(map[int32]int32, n)
		for v := int32(0); int(v) < n; v++ {
			r := uf.find(v)
			l, ok := seen[r]
			if !ok {
				l = next
				seen[r] = l
				next++
			}
			labels[v] = l
		}
		c.AccessRange(labBase, uint64(n))
		c.Ops(uint64(n))
		for v := range comp {
			comp[v] = labels[comp[v]]
		}
		// Relabel + compact the edge array sequentially.
		out := edges[:0]
		for i, e := range edges {
			c.AccessRange(edgeBase+uint64(3*i), 3)
			c.Ops(4)
			u, v := labels[e.U], labels[e.V]
			if u != v {
				out = append(out, graph.Edge{U: u, V: v, W: e.W})
			}
		}
		edges = out
	}
	distinct := map[int32]bool{}
	for _, l := range comp {
		distinct[l] = true
	}
	return len(distinct)
}

// matSim is an adjacency matrix whose row accesses are charged to the
// cache.
type matSim struct {
	c    *Cache
	base uint64
	n    int
	w    []uint64
}

func newMatSim(c *Cache, g *graph.Graph) *matSim {
	m := &matSim{c: c, base: c.Alloc(g.N * g.N), n: g.N, w: graph.MatrixFromGraph(g).W}
	return m
}

func (m *matSim) rowScan(i int32) []uint64 {
	m.c.AccessRange(m.base+uint64(int(i)*m.n), uint64(m.n))
	m.c.Ops(uint64(m.n))
	return m.w[int(i)*m.n : (int(i)+1)*m.n]
}

// StoerWagnerKernel replays the deterministic SW baseline: n-1 phases of
// maximum-adjacency search with dense row scans, plus the random column
// writes of each merge — the locality sin Figure 9 exposes. Returns the
// minimum cut value.
func StoerWagnerKernel(c *Cache, g *graph.Graph) uint64 {
	return stoerWagnerOn(newMatSim(c, g), c.Alloc(g.N))
}

// stoerWagnerOn runs the replay on a placed matrix (which it consumes)
// with the connectivity vector at connBase. It is both the SW baseline
// and, on the small matrices recursive contraction bottoms out in, the
// base case of the KS and MC kernels — as in the shipped code.
func stoerWagnerOn(m *matSim, connBase uint64) uint64 {
	c, n := m.c, m.n
	alive := make([]int32, n)
	for i := range alive {
		alive[i] = int32(i)
	}
	live := n
	best := uint64(math.MaxUint64)
	conn := make([]uint64, n)
	inA := make([]bool, n)
	for live > 1 {
		for _, v := range alive[:live] {
			conn[v] = 0
			inA[v] = false
		}
		c.AccessRange(connBase, uint64(live))
		var prev, last int32 = -1, alive[0]
		inA[last] = true
		row := m.rowScan(last)
		for _, v := range alive[:live] {
			if !inA[v] {
				conn[v] += row[v]
			}
		}
		c.AccessRange(connBase, uint64(live))
		c.Ops(uint64(live))
		for step := 1; step < live; step++ {
			var sel int32 = -1
			var selW uint64
			c.AccessRange(connBase, uint64(live)) // selection scan
			c.Ops(uint64(live))
			for _, v := range alive[:live] {
				if !inA[v] && (sel < 0 || conn[v] > selW) {
					sel = v
					selW = conn[v]
				}
			}
			prev, last = last, sel
			inA[sel] = true
			row = m.rowScan(sel)
			for _, v := range alive[:live] {
				if !inA[v] {
					conn[v] += row[v]
				}
			}
			c.AccessRange(connBase, uint64(live))
			c.Ops(uint64(live))
		}
		if conn[last] < best {
			best = conn[last]
		}
		// Merge last into prev: two row scans plus live random column
		// writes.
		rowPrev := m.rowScan(prev)
		rowLast := m.rowScan(last)
		for _, k := range alive[:live] {
			if k == prev || k == last {
				continue
			}
			nw := rowPrev[k] + rowLast[k]
			rowPrev[k] = nw
			m.w[int(k)*m.n+int(prev)] = nw
			m.w[int(k)*m.n+int(last)] = 0
			c.Access(m.base + uint64(int(k)*m.n+int(prev))) // random write
			c.Access(m.base + uint64(int(k)*m.n+int(last)))
			c.Ops(4)
		}
		rowPrev[last] = 0
		rowLast[prev] = 0
		for idx, a := range alive[:live] {
			if a == last {
				alive[idx] = alive[live-1]
				live--
				break
			}
		}
	}
	return best
}

// ksContract replays one random contraction to t vertices in the style
// of the cache-oblivious Karger–Stein variant: instead of per-edge row
// merges, a batch of edges is sampled (iterated sampling), prefix
// selection picks the usable prefix, and ONE dense bulk-contraction pass
// rewrites the matrix sequentially — O(n²/B) misses per round instead of
// O(n) scans per contraction. Returns the compacted matrix and its size.
func ksContract(c *Cache, base uint64, n int, w []uint64, t int, st *rng.Stream) (int, []uint64) {
	uf := graph.NewUnionFind(n)
	for uf.Count() > t {
		// Build cumulative weights with one sequential pass (entries are
		// in the current, compacted matrix).
		ps := rng.NewPrefixSampler(w)
		c.AccessRange(base, uint64(n*n))
		c.Ops(uint64(n * n))
		if ps.Total() == 0 {
			break
		}
		// Sample a batch of random probes. The budget is generous (several
		// n^(1+σ)) so that a single bulk-contraction pass per call is the
		// common case — probes are single-word accesses, far cheaper than
		// rescanning the matrix.
		s := 8 * int(math.Ceil(math.Pow(float64(uf.Count()), 1.5)))
		if s < 256 {
			s = 256
		}
		before := uf.Count()
		for k := 0; k < s && uf.Count() > t; k++ {
			idx := ps.Sample(st)
			c.Access(base + uint64(idx))
			c.Ops(8)
			uf.Union(int32(idx/n), int32(idx%n))
		}
		if uf.Count() == before {
			break
		}
		// Bulk contraction: one sequential read of the n×n matrix, one
		// sequential write of the contracted one.
		labels := uf.Labels()
		live := uf.Count()
		out := make([]uint64, live*live)
		for i := 0; i < n; i++ {
			ti := int(labels[i])
			row := w[i*n : (i+1)*n]
			for j, x := range row {
				if x != 0 {
					out[ti*live+int(labels[j])] += x
				}
			}
		}
		for v := 0; v < live; v++ {
			out[v*live+v] = 0
		}
		c.AccessRange(base, uint64(n*n))
		c.AccessRange(base, uint64(live*live))
		c.Ops(uint64(n*n) + uint64(live*live))
		// Continue on the contracted matrix (relabelled union-find).
		w = out
		n = live
		uf = graph.NewUnionFind(n)
	}
	return n, w
}

// ksArena provides per-recursion-depth scratch addresses, mirroring a
// real implementation's buffer reuse: sibling subproblems at the same
// depth overwrite the same memory, so cache-resident subproblems actually
// hit the cache instead of cold-missing on fresh allocations.
type ksArena struct {
	c     *Cache
	bases map[int]uint64
}

func (a *ksArena) base(depth, words int) uint64 {
	b, ok := a.bases[depth]
	if !ok {
		b = a.c.Alloc(words)
		a.bases[depth] = b
	}
	return b
}

// ksRecurseKernel replays recursive contraction on the compacted matrix.
func ksRecurseKernel(c *Cache, a *ksArena, depth int, w []uint64, n int, st *rng.Stream) uint64 {
	if n <= mincut.BaseCaseSize {
		// The shipped base case: copy into scratch, solve exactly by
		// Stoer–Wagner. Negative keys keep the per-depth connectivity
		// vectors apart from the matrices.
		base := a.base(depth, n*n)
		c.AccessRange(base, uint64(n*n))
		c.Ops(uint64(n * n))
		leaf := &matSim{c: c, base: base, n: n, w: append([]uint64(nil), w...)}
		return stoerWagnerOn(leaf, a.base(-1-depth, n))
	}
	t := int(math.Ceil(float64(n)/math.Sqrt2)) + 1
	if t >= n {
		t = n - 1
	}
	best := uint64(math.MaxUint64)
	for branch := 0; branch < 2; branch++ {
		wc := append([]uint64(nil), w...)
		base := a.base(depth, n*n)
		c.AccessRange(base, uint64(n*n)) // copy
		c.Ops(uint64(n * n))
		live, cw := ksContract(c, base, n, wc, t, st)
		if v := ksRecurseKernel(c, a, depth+1, cw, live, st); v < best {
			best = v
		}
	}
	return best
}

// KargerSteinKernel replays `trials` runs of recursive contraction — the
// paper's cache-oblivious KS baseline — and returns the best cut value.
func KargerSteinKernel(c *Cache, g *graph.Graph, st *rng.Stream, trials int) uint64 {
	m := graph.MatrixFromGraph(g)
	best := uint64(math.MaxUint64)
	arena := &ksArena{c: c, bases: map[int]uint64{}}
	for i := 0; i < trials; i++ {
		if v := ksRecurseKernel(c, arena, 0, m.W, g.N, st); v < best {
			best = v
		}
	}
	// Min-degree fallback (scan).
	deg := g.Degrees()
	for _, d := range deg {
		if d < best {
			best = d
		}
	}
	c.Ops(uint64(g.N))
	return best
}

// MCKernel replays the paper's full MC algorithm run on one processor:
// per trial, the Eager Step over the edge array (sequential scans plus
// random sampling probes) followed by recursive contraction on the
// ⌈√m⌉+1-vertex remainder. Buffered edge arrays and intermediate
// structures make it less compact than the KS baseline, which is the gap
// Figure 9 shows. Returns the best cut value.
func MCKernel(c *Cache, g *graph.Graph, st *rng.Stream, trials int) uint64 {
	best := uint64(math.MaxUint64)
	tgt := int(math.Ceil(math.Sqrt(float64(len(g.Edges))))) + 1
	for trial := 0; trial < trials; trial++ {
		// Eager step on the edge array.
		edges := append([]graph.Edge(nil), g.Edges...)
		base := c.Alloc(3 * len(edges))
		c.AccessRange(base, uint64(3*len(edges))) // copy in
		n := g.N
		comp := make([]int32, n)
		for i := range comp {
			comp[i] = int32(i)
		}
		nCur := n
		for nCur > tgt && len(edges) > 0 {
			s := int(math.Ceil(math.Pow(float64(nCur), 1.5)))
			if s > 2*len(edges) {
				s = 2 * len(edges)
			}
			if s < 64 {
				s = 64
			}
			// Weight prefix for sampling: sequential scan.
			weights := make([]uint64, len(edges))
			for i, e := range edges {
				weights[i] = e.W
			}
			c.AccessRange(base, uint64(3*len(edges)))
			c.Ops(uint64(len(edges)))
			ps := rng.NewPrefixSampler(weights)
			uf := newUFSim(c, nCur)
			for k := 0; k < s; k++ {
				if uf.count <= tgt {
					break
				}
				i := ps.Sample(st)
				c.AccessRange(base+uint64(3*i), 3)
				c.Ops(6)
				uf.union(edges[i].U, edges[i].V)
			}
			labels := make([]int32, nCur)
			seen := make(map[int32]int32, nCur)
			for v := int32(0); int(v) < nCur; v++ {
				r := uf.find(v)
				l, ok := seen[r]
				if !ok {
					l = int32(len(seen))
					seen[r] = l
				}
				labels[v] = l
			}
			out := edges[:0]
			for i, e := range edges {
				c.AccessRange(base+uint64(3*i), 3)
				c.Ops(5)
				u, v := labels[e.U], labels[e.V]
				if u != v {
					out = append(out, graph.Edge{U: u, V: v, W: e.W})
				}
			}
			edges = graph.CombineParallel(out)
			c.AccessRange(base, uint64(3*len(edges)))
			c.Ops(uint64(len(edges)) * 8) // sort proxy
			for v := range comp {
				comp[v] = labels[comp[v]]
			}
			nCur = len(seen)
		}
		if nCur < 2 {
			continue
		}
		cg := &graph.Graph{N: nCur, Edges: edges}
		arena := &ksArena{c: c, bases: map[int]uint64{}}
		v := ksRecurseKernel(c, arena, 0, graph.MatrixFromGraph(cg).W, nCur, st)
		if v < best {
			best = v
		}
	}
	deg := g.Degrees()
	for _, d := range deg {
		if d < best {
			best = d
		}
	}
	c.Ops(uint64(g.N))
	return best
}
