// Package dist provides the distributed graph representations of §3 of
// the paper on top of the BSP runtime: the distributed edge array (every
// processor keeps O(m/p) weighted edges — robust to skewed degree
// distributions, unlike distributed adjacency lists) and the distributed
// adjacency matrix (Θ(n/p) rows per processor — used when the graph is
// dense, m ≥ n²/log n, and inside recursive contraction). It also
// implements the O(1)-superstep parallel sample sort that underlies
// sparse bulk edge contraction (§4.1).
package dist

import (
	"repro/internal/bsp"
	"repro/internal/graph"
)

// edgeWords is the number of BSP words per encoded edge: (u, v, w).
const edgeWords = 3

// EncodeEdges packs edges into BSP words (3 per edge).
func EncodeEdges(es []graph.Edge) []uint64 {
	out := make([]uint64, 0, len(es)*edgeWords)
	return AppendEdges(out, es)
}

// AppendEdges appends the encoded form of es to dst and returns it.
func AppendEdges(dst []uint64, es []graph.Edge) []uint64 {
	for _, e := range es {
		dst = append(dst, uint64(uint32(e.U)), uint64(uint32(e.V)), e.W)
	}
	return dst
}

// DecodeEdges unpacks words produced by EncodeEdges. It panics if the
// length is not a multiple of the edge size.
func DecodeEdges(words []uint64) []graph.Edge {
	if len(words)%edgeWords != 0 {
		panic("dist: ragged edge payload")
	}
	es := make([]graph.Edge, len(words)/edgeWords)
	for i := range es {
		es[i] = graph.Edge{
			U: int32(uint32(words[i*edgeWords])),
			V: int32(uint32(words[i*edgeWords+1])),
			W: words[i*edgeWords+2],
		}
	}
	return es
}

// DecodeEdgesAppend appends the edges encoded in words to dst and
// returns it — DecodeEdges without the per-call allocation, for callers
// assembling one edge array from many payloads.
func DecodeEdgesAppend(dst []graph.Edge, words []uint64) []graph.Edge {
	if len(words)%edgeWords != 0 {
		panic("dist: ragged edge payload")
	}
	for i := 0; i+edgeWords <= len(words); i += edgeWords {
		dst = append(dst, graph.Edge{
			U: int32(uint32(words[i])),
			V: int32(uint32(words[i+1])),
			W: words[i+2],
		})
	}
	return dst
}

// BlockRange splits n items evenly over p processors and returns the
// half-open range owned by rank.
func BlockRange(n, p, rank int) (lo, hi int) {
	lo = rank * n / p
	hi = (rank + 1) * n / p
	return lo, hi
}

// OwnerOf returns the rank owning item i under BlockRange distribution.
// n must be positive and i in [0, n).
func OwnerOf(n, p, i int) int {
	// Inverse of BlockRange: the owner is the largest r with r*n/p <= i.
	r := (i*p + p - 1) / n
	for r*n/p > i {
		r--
	}
	for (r+1)*n/p <= i {
		r++
	}
	return r
}

// ScatterGraph distributes the root's graph: the vertex count is
// broadcast and the edges are split into contiguous equal slices. Every
// processor returns (n, its local edges). Only the root's g is consulted.
func ScatterGraph(c *bsp.Comm, root int, g *graph.Graph) (int, []graph.Edge) {
	var header []uint64
	if c.Rank() == root {
		header = []uint64{uint64(g.N)}
	}
	n := int(c.Broadcast(root, header)[0])
	if c.Rank() == root {
		for r := 0; r < c.Size(); r++ {
			lo, hi := BlockRange(len(g.Edges), c.Size(), r)
			buf := c.Buffer((hi - lo) * edgeWords)[:0]
			c.SendOwned(r, AppendEdges(buf, g.Edges[lo:hi]))
		}
	}
	c.Sync()
	return n, DecodeEdges(c.Recv(root))
}

// GatherEdges collects all local edge slices at the root; non-roots get
// nil.
func GatherEdges(c *bsp.Comm, root int, local []graph.Edge) []graph.Edge {
	buf := c.Buffer(len(local) * edgeWords)[:0]
	parts := c.GatherOwned(root, AppendEdges(buf, local))
	if c.Rank() != root {
		return nil
	}
	var all []graph.Edge
	for _, p := range parts {
		all = append(all, DecodeEdges(p)...)
	}
	return all
}

// AllGatherEdges collects all local edge slices at every processor.
func AllGatherEdges(c *bsp.Comm, local []graph.Edge) []graph.Edge {
	words := AppendEdges(c.Buffer(len(local) * edgeWords)[:0], local)
	for dst := 0; dst < c.Size(); dst++ {
		c.Send(dst, words)
	}
	c.Sync()
	total := 0
	for src := 0; src < c.Size(); src++ {
		total += len(c.Recv(src)) / edgeWords
	}
	all := make([]graph.Edge, 0, total)
	for src := 0; src < c.Size(); src++ {
		all = DecodeEdgesAppend(all, c.Recv(src))
	}
	return all
}

// TotalWeight returns the global sum of local edge weights.
func TotalWeight(c *bsp.Comm, local []graph.Edge) uint64 {
	var w uint64
	for _, e := range local {
		w += e.W
	}
	return c.AllReduce([]uint64{w}, bsp.OpSum)[0]
}
