// Package sparsify implements the paper's communication-avoiding
// sparsification (§3.1): drawing s edges from a distributed edge array,
// each independently with probability proportional to its weight, in O(1)
// supersteps and O(s + p) communication volume (Lemmas 3.1 and 3.2).
//
// Two variants are provided: the weighted scheme used by iterated
// sampling for minimum cuts, and the cheaper unweighted oversampling
// scheme (Chernoff-bounded) used by the connected-components algorithm,
// which skips the root's distribution step and samples O(1) per edge.
package sparsify

import (
	"math"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
	xsort "repro/internal/sort"
)

// Weighted draws s edges from the distributed edge array, each slot
// independently holding edge e with probability w(e)/W (with
// replacement). The permuted sample is returned at the root; other ranks
// return nil. It takes O(1) supersteps, O(s+p) communication volume,
// O(s log n + m/p) time (Lemma 3.2).
//
// Steps: ① gather per-slice weights W_i at the root; ② the root draws the
// multinomial split of s slots over processors and scatters the counts;
// ③ each processor draws its quota from its slice by binary search over
// local cumulative weights; ④ the root gathers and randomly permutes the
// sample (the order matters for prefix selection downstream).
func Weighted(c *bsp.Comm, root int, local []graph.Edge, s int, st *rng.Stream) []graph.Edge {
	p := c.Size()

	// ① Local weight sums, gathered at the root.
	var wi uint64
	for _, e := range local {
		wi += e.W
	}
	c.Ops(uint64(len(local)))
	sums := c.Gather(root, []uint64{wi})

	// ② Root distributes the s slots over processors proportionally to
	// W_i. The per-rank counts are one-word windows into a single pooled
	// buffer (the samplers do not retain their weight slices, so the
	// borrowed buffers go straight back to the pool).
	var counts [][]uint64
	if c.Rank() == root {
		weights := xsort.BorrowWords(p)
		var total uint64
		for r := 0; r < p; r++ {
			weights[r] = sums[r][0]
			total += sums[r][0]
		}
		flat := xsort.BorrowWords(p)
		counts = make([][]uint64, p)
		for r := range counts {
			flat[r] = 0
			counts[r] = flat[r : r+1 : r+1]
		}
		if total > 0 {
			alias := rng.NewAliasSampler(weights)
			for k := 0; k < s; k++ {
				counts[alias.Sample(st)][0]++
			}
			c.Ops(uint64(s))
		}
		xsort.ReleaseWords(weights)
		defer xsort.ReleaseWords(flat)
	}
	quota := int(c.Scatter(root, counts)[0])

	// ③ Draw the local quota by weight-proportional selection.
	chosen := make([]graph.Edge, 0, quota)
	if quota > 0 {
		weights := xsort.BorrowWords(len(local))
		for i, e := range local {
			weights[i] = e.W
		}
		ps := rng.NewPrefixSampler(weights)
		xsort.ReleaseWords(weights)
		for k := 0; k < quota; k++ {
			chosen = append(chosen, local[ps.Sample(st)])
		}
		c.Ops(uint64(len(local)) + uint64(quota)*uint64(math.Ilogb(float64(len(local)+2))+1))
	}
	gathered := gatherEdges(c, root, chosen)
	if c.Rank() != root {
		return nil
	}

	// ④ Random permutation at the root, required so that every edge is
	// equally likely at every sample position (Lemma 3.1).
	st.Shuffle(len(gathered), func(i, j int) {
		gathered[i], gathered[j] = gathered[j], gathered[i]
	})
	c.Ops(uint64(len(gathered)))
	return gathered
}

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
// only read.
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
	var pick rng.Bounded
	if whole {
		k = len(local)
	} else {
		pick = rng.NewBounded(uint64(len(local)))
	}
	send := c.Rank() != root
	var forest []uint64
	if send {
		forest = c.Buffer(min(k, n))[:0]
	}
	for i := 0; i < k; i++ {
		j := i
		if !whole {
			j = int(pick.Draw(st))
		}
		e := &local[j]
		if uf.Union(e.U, e.V) && send {
			forest = append(forest, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
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
