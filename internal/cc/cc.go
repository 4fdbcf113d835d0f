// Package cc implements the communication-avoiding connected-components
// algorithm of §3.2 — iterated sampling without bulk edge contraction,
// taking O(1) supersteps and O(n^{1+ε}) communication volume w.h.p. — and
// the three baseline families the paper compares against: a sequential
// linear-time traversal (the BGL baseline), a synchronization-heavy BSP
// label-propagation algorithm (the PBGL baseline), and an asynchronous
// shared-memory union-find (the Galois baseline).
package cc

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparsify"
)

// Result is a connected-components labelling.
type Result struct {
	// Labels maps every original vertex to its component label. Labels
	// are dense in [0, Count).
	Labels []int32
	// Count is the number of connected components.
	Count int
	// Iterations is the number of sparsify→contract rounds performed
	// (w.h.p. O(1)).
	Iterations int
}

// Options tunes the parallel algorithm. Zero values select the defaults.
type Options struct {
	// Epsilon controls the sample size s = n^(1+Epsilon/2); default 0.5.
	Epsilon float64
	// Delta is the Chernoff oversampling slack of the unweighted
	// sampler; default 0.5.
	Delta float64
	// MaxIterations bounds the sampling rounds (default 64); exceeding it
	// indicates a logic error and panics the worker.
	MaxIterations int
	// Plan, when non-nil and matching the input, supplies the snapshot's
	// precomputed connectivity labelling: the call returns it immediately
	// with zero supersteps, recording the skipped cold cost on the BSP
	// ledger via SkipComm. Plan labels are canonical first-occurrence
	// dense, so the warm Result is bit-identical to a cold run's. A
	// mismatched plan (wrong N) is ignored.
	Plan *graph.Plan
}

func (o *Options) defaults() {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.5
	}
	if o.Delta <= 0 {
		o.Delta = 0.5
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 64
	}
}

// Parallel computes connected components of the distributed edge array
// (n vertices, each processor holding a slice of edges) by iterated
// sampling: every processor contracts its own sample to a spanning
// forest, the root merges the forests and broadcasts the relabelling,
// everyone contracts locally, repeat until no edge remains. local is
// never written: the first round's survivors go to a fresh slice. The
// root's merged forest is the labelling, so only the root's Result
// carries Labels and Count; the other ranks return the Iterations alone
// (nil Labels), and no collective ships the answer to them.
//
// The first round reads every edge of local — whole in the forest pass
// when the round is exact, otherwise in the relabel pass — and checks
// each on that first read (graph.Edge.Valid): an edge out of range for
// n, a loop or a zero weight panics the rank with graph.ErrInvalidEdge,
// and the machine fails the run. Which rank trips first is a race, so
// the caller re-derives the canonical error (graph.Validate) itself.
func Parallel(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, opts Options) *Result {
	opts.defaults()
	const root = 0
	if pl := opts.Plan; pl.Matches(n) {
		c.SkipComm(pl.CCCost.Collectives, pl.CCCost.Words)
		if c.Rank() != root {
			return &Result{}
		}
		return &Result{Labels: append([]int32(nil), pl.Labels...), Count: pl.Components}
	}

	// The root tracks the label of each original vertex; its per-round
	// labelling is hoisted out of the loop, and the relabelling it
	// broadcasts is built in a word buffer. All of it is pooled.
	var comp, labels, lscratch []int32
	var words []uint64
	if c.Rank() == root {
		sc := getRootScratch(n)
		defer rootPool.Put(sc)
		comp, labels, lscratch, words = sc.comp, sc.labels, sc.lscratch, sc.words
		for i := range comp {
			comp[i] = int32(i)
		}
	}
	uf := graph.GetUnionFind(n)
	defer graph.PutUnionFind(uf)
	s := sampleSize(n, opts.Epsilon)
	edges := local

	iters := 0
	prevM := uint64(math.MaxUint64)
	for {
		m := c.AllReduce([]uint64{uint64(len(edges))}, bsp.OpSum)[0]
		if m == 0 {
			break
		}
		if iters >= opts.MaxIterations {
			panic(fmt.Sprintf("cc: no convergence after %d iterations (m=%d)", iters, m))
		}
		if m == prevM {
			// Safety net: the sample failed to shrink the edge set (only
			// possible with tiny samples); double s to force progress.
			s *= 2
		}
		prevM = m
		iters++

		exact := sparsify.UnweightedForest(c, root, edges, m, s, n, opts.Delta, st, uf)

		// Root: label the sampled graph's components over the current
		// label space, the mapping from old to new labels.
		if c.Rank() == root {
			uf.LabelsInto(labels, lscratch)
			c.Ops(uint64(n))
			for v := range comp {
				comp[v] = labels[comp[v]]
			}
		}
		// Every rank contributed its whole slice (and every rank knows):
		// no edge would survive the relabelling, comp is the answer.
		if exact {
			break
		}
		for i, l := range labels { // the root's alone: nil elsewhere
			words[i] = uint64(uint32(l))
		}
		gw := c.Broadcast(root, words)

		// Everyone: relabel local edges and drop loops. Only from the
		// second round on is edges this call's own slice to overwrite.
		// The first round meets here every edge its sample skipped, so
		// each is checked before it indexes gw; the later rounds' edges
		// are the kernel's own and always pass.
		var out []graph.Edge
		if iters > 1 {
			out = edges[:0]
		}
		for _, e := range edges {
			if !e.Valid(n) {
				panic(graph.ErrInvalidEdge)
			}
			u := int32(uint32(gw[e.U]))
			v := int32(uint32(gw[e.V]))
			if u != v {
				out = append(out, graph.Edge{U: u, V: v, W: e.W})
			}
		}
		c.Ops(uint64(len(edges)))
		edges = out
	}

	// The per-round relabellings keep comp dense over the final label
	// space already, but singleton components of untouched vertices share
	// that space; recompact for a dense [0, Count) labelling.
	if c.Rank() != root {
		return &Result{Iterations: iters}
	}
	remap := graph.GetRemap(n)
	res := &Result{Labels: make([]int32, n), Iterations: iters}
	for v, l := range comp {
		res.Labels[v] = remap.Of(l)
	}
	res.Count = remap.Len()
	graph.PutRemap(remap)
	return res
}

// rootScratch is the root's n-sized working set of one Parallel call.
// Every call of every concurrent query needs one, so it is pooled like
// the union-find; the Result's Labels are allocated fresh.
type rootScratch struct {
	comp, labels, lscratch []int32
	words                  []uint64 // the broadcast relabelling
}

var rootPool = sync.Pool{New: func() any { return new(rootScratch) }}

// getRootScratch returns a pooled working set sized for n vertices; its
// contents are left over from the last call.
func getRootScratch(n int) *rootScratch {
	sc := rootPool.Get().(*rootScratch)
	sc.comp = slices.Grow(sc.comp[:0], n)[:n]
	sc.labels = slices.Grow(sc.labels[:0], n)[:n]
	sc.lscratch = slices.Grow(sc.lscratch[:0], n)[:n]
	sc.words = slices.Grow(sc.words[:0], n)[:n]
	return sc
}

// sampleSize returns s = ⌈n^(1+ε/2)⌉, clamped to at least 32.
func sampleSize(n int, epsilon float64) int {
	s := int(math.Ceil(math.Pow(float64(n), 1+epsilon/2)))
	if s < 32 {
		s = 32
	}
	return s
}

// Sequential computes connected components with a linear-time BFS over a
// CSR adjacency — the sequential baseline corresponding to BGL's
// connected_components.
func Sequential(g *graph.Graph) *Result {
	labels, count := graph.BuildCSR(g).ConnectedComponents()
	return &Result{Labels: labels, Count: count, Iterations: 0}
}
