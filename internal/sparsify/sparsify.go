// Package sparsify implements the paper's communication-avoiding
// sparsification (§3.1) in the form the connected-components algorithm
// uses: an unweighted oversampling scheme (Chernoff-bounded) that draws
// about s edges from a distributed edge array in O(1) supersteps without
// the root's distribution step, sampling O(1) per edge. The weighted
// scheme of Lemma 3.2 has no caller here: the exact min cut replicates
// the graph and each trial samples its edges locally.
package sparsify

import (
	"math"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Unweighted draws an (over)sample of about s edges uniformly from the
// distributed edge array without the root round-trip: each processor
// expects µ_i = s·m_i/m slots and draws ⌈(1+δ)µ_i⌉ uniform local edges,
// or contributes its whole slice when µ_i is below the Chernoff threshold
// (9 ln n)/δ². The combined sample is returned at the root (other ranks
// nil). Sampling is O(1) per edge; no permutation is applied — the
// connected-components consumer is order-insensitive.
func Unweighted(c *bsp.Comm, root int, local []graph.Edge, s, n int, delta float64, st *rng.Stream) []graph.Edge {
	m := c.AllReduce([]uint64{uint64(len(local))}, bsp.OpSum)[0]
	chosen := local
	if k, whole := quota(len(local), m, s, n, delta); !whole {
		chosen = make([]graph.Edge, k)
		pick := rng.NewBounded(uint64(len(local)))
		for i := range chosen {
			chosen[i] = local[pick.Draw(st)]
		}
		c.Ops(uint64(k))
	}
	return gatherEdges(c, root, chosen)
}

// quota is the unweighted sampler's per-processor rule: a processor
// holding mi of the m edges draws k = ⌈(1+δ)µ_i⌉ of them, or contributes
// its whole slice when µ_i is below the Chernoff threshold or k would
// reach mi anyway.
func quota(mi int, m uint64, s, n int, delta float64) (k int, whole bool) {
	if mi == 0 {
		return 0, true
	}
	mu := float64(s) * float64(mi) / float64(m)
	k = int(math.Ceil((1 + delta) * mu))
	return k, mu < 9*math.Log(float64(n)+2)/(delta*delta) || k >= mi
}

// UnweightedForest is Unweighted for a consumer that only wants the
// sample's connectivity: every processor makes Unweighted's draws (same
// quota, same stream positions) but unions them straight into uf — reset
// here to n singletons — and ships the root only the edges that merged
// two sets, a spanning forest of its sample: at most min(k, n-1) packed
// words u<<32|v where Unweighted ships 3 words for each of k edges. The
// root unions the forests it receives into its own uf, which then holds
// the components of the combined sample; it sends itself nothing. m is
// the global edge count, which the caller has already reduced. local is
// only read, and each edge it draws is checked (graph.Edge.Valid) before
// it reaches uf: an invalid one panics with graph.ErrInvalidEdge, which
// the machine turns into a failed run. A slice taken whole is read in
// one plain pass over local, no draw and no index, and thereby checked
// in full; a sampled one draws its k edges through one rng.Bounded.
//
// It reports whether the root's uf is exact, i.e. holds the components
// of the whole edge array and not just of a sample: m ≤ (1+δ)s makes k
// reach m_i on every processor, so each contributed its whole slice.
// Every processor returns the same answer — it depends on m, s and δ
// alone — without communicating. (Sufficient, not necessary: slices
// taken whole only for sitting under the Chernoff threshold do not
// count.)
func UnweightedForest(c *bsp.Comm, root int, local []graph.Edge, m uint64, s, n int, delta float64, st *rng.Stream, uf *graph.UnionFind) (exact bool) {
	exact = float64(m) <= (1+delta)*float64(s)
	uf.Reset(n)
	k, whole := quota(len(local), m, s, n, delta)
	if whole {
		k = len(local)
	}
	send := c.Rank() != root
	var forest []uint64
	if send {
		forest = c.Buffer(min(k, n))[:0]
	}
	if whole {
		for _, e := range local {
			if !e.Valid(n) {
				panic(graph.ErrInvalidEdge)
			}
			if uf.Union(e.U, e.V) && send {
				forest = append(forest, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
			}
		}
	} else {
		pick := rng.NewBounded(uint64(len(local)))
		for range k {
			e := &local[pick.Draw(st)]
			if !e.Valid(n) {
				panic(graph.ErrInvalidEdge)
			}
			if uf.Union(e.U, e.V) && send {
				forest = append(forest, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
			}
		}
	}
	c.Ops(uint64(k))
	if send {
		c.SendOwned(root, forest)
	}
	c.Sync()
	if send {
		return exact
	}
	for src := 0; src < c.Size(); src++ {
		in := c.Recv(src)
		for _, w := range in {
			uf.Union(int32(w>>32), int32(uint32(w)))
		}
		c.Ops(uint64(len(in)))
	}
	return exact
}

// gatherEdges gathers edge slices at the root (3 words per edge). The
// payload is built in a runtime-pooled buffer and handed off owned, so
// the gather is copy- and allocation-free in steady state.
func gatherEdges(c *bsp.Comm, root int, es []graph.Edge) []graph.Edge {
	parts := c.GatherOwned(root, dist.AppendEdges(c.Buffer(3 * len(es))[:0], es))
	if c.Rank() != root {
		return nil
	}
	total := 0
	for _, part := range parts {
		total += len(part) / 3
	}
	out := make([]graph.Edge, 0, total)
	for _, part := range parts {
		out = dist.DecodeEdgesAppend(out, part)
	}
	return out
}
