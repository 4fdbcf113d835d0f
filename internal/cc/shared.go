package cc

import "repro/internal/graph"

// sharedLinkRounds is the number of per-vertex neighbor-sampling passes
// SharedAdaptive runs before it decides which component is the giant one.
// Two passes (link each vertex to its first two neighbors) is the sweet
// spot Sutton et al. report: on graphs with a dominant component it
// already merges most vertices into it.
const sharedLinkRounds = 2

// sharedProbeSize bounds the component-frequency sample used to identify
// the giant component.
const sharedProbeSize = 1024

// SharedAdaptive is the planner's p=1 fast path: an adaptive
// work-avoiding connected-components kernel in the spirit of Sutton,
// Ben-Nun, and Barak's Afforest. It runs on the calling goroutine with
// no BSP machine, no mailboxes, and no barriers — for small or warm
// queries the fixed cost of spinning up even a p=1 machine dominates the
// actual labelling work, and this path skips all of it.
//
// The adaptivity is Afforest's component-sampling short cut: first link
// every vertex to its first sharedLinkRounds neighbors (cheap, and on
// real graphs enough to assemble the giant component), then probe a
// small vertex sample to find the most frequent component, and finally
// scan the remaining adjacency only for vertices *outside* that
// component. Vertices already absorbed into the giant component — most
// of them, on skewed real-world inputs — never touch the rest of their
// edge lists. Correctness does not depend on the sample: an edge whose
// endpoints are in different components always has a non-giant endpoint,
// and that endpoint's scan performs the union.
//
// Labels are canonical first-occurrence dense, identical to
// cc.Sequential and the BSP kernels.
func SharedAdaptive(g *graph.Graph) *Result {
	n := g.N
	if n == 0 {
		return &Result{Labels: []int32{}, Count: 0}
	}
	c := graph.BuildCSR(g)
	uf := graph.GetUnionFind(n)
	defer graph.PutUnionFind(uf)

	// Phase 1: neighbor sampling — link each vertex to its first
	// sharedLinkRounds neighbors.
	for r := 0; r < sharedLinkRounds; r++ {
		for v := int32(0); int(v) < n; v++ {
			nb := c.Neighbors(v)
			if r < len(nb) {
				uf.Union(v, nb[r])
			}
		}
	}

	// Identify the giant component from a strided vertex probe.
	stride := n / sharedProbeSize
	if stride < 1 {
		stride = 1
	}
	counts := make(map[int32]int, sharedProbeSize)
	for v := 0; v < n; v += stride {
		counts[uf.Find(int32(v))]++
	}
	giant, best := int32(-1), 0
	for root, k := range counts {
		if k > best || (k == best && root < giant) {
			giant, best = root, k
		}
	}

	// Phase 2: scan the remaining adjacency of non-giant vertices only.
	for v := int32(0); int(v) < n; v++ {
		if uf.Find(v) == giant {
			continue
		}
		nb := c.Neighbors(v)
		if len(nb) > sharedLinkRounds {
			for _, w := range nb[sharedLinkRounds:] {
				uf.Union(v, w)
			}
		}
	}

	res := &Result{Labels: make([]int32, n)}
	remap := graph.GetRemap(n)
	for v := int32(0); int(v) < n; v++ {
		res.Labels[v] = remap.Of(uf.Find(v))
	}
	res.Count = remap.Len()
	graph.PutRemap(remap)
	return res
}
