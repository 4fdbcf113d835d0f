// Package gen generates the synthetic input families used by the paper's
// evaluation (§5): Erdős–Rényi G(n,M), Watts–Strogatz small-world graphs
// (rewiring probability 0.3), Barabási–Albert scale-free graphs, and
// R-MAT graphs (a=0.45, b=c=0.22), plus a set of corner-case graphs with
// known, deterministic minimum-cut values used for verification (artifact
// §A.6.2).
package gen

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Config controls weight assignment for the random generators.
type Config struct {
	// MaxWeight > 1 assigns each edge a uniform weight in [1, MaxWeight];
	// otherwise all edges have weight 1.
	MaxWeight uint64
}

func (c Config) weight(s *rng.Stream) uint64 {
	if c.MaxWeight > 1 {
		return 1 + s.Uint64n(c.MaxWeight)
	}
	return 1
}

// ErdosRenyiM returns a G(n, M) graph: exactly m distinct edges drawn
// uniformly among all vertex pairs (the model of Figure 1 and Figure 9).
func ErdosRenyiM(n, m int, seed uint64, cfg Config) *graph.Graph {
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		panic(fmt.Sprintf("gen: G(n,M) with m=%d > C(%d,2)=%d", m, n, maxEdges))
	}
	s := rng.New(seed, 0, 1)
	g := graph.New(n)
	seen := make(map[uint64]bool, m)
	for len(g.Edges) < m {
		u := int32(s.Intn(n))
		v := int32(s.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if seen[key] {
			continue
		}
		seen[key] = true
		g.AddEdge(u, v, cfg.weight(s))
	}
	return g
}

// ErdosRenyiP returns a G(n, p) graph using geometric skip sampling, which
// runs in O(n + m) expected time rather than O(n^2).
func ErdosRenyiP(n int, p float64, seed uint64, cfg Config) *graph.Graph {
	g := graph.New(n)
	if p <= 0 || n < 2 {
		return g
	}
	if p >= 1 {
		return Complete(n, 1)
	}
	s := rng.New(seed, 0, 2)
	// Enumerate pairs (u,v), u<v, in a flat order and jump geometrically.
	total := int64(n) * int64(n-1) / 2
	idx := int64(s.Geometric(p))
	for idx < total {
		// Decode idx into (u, v).
		u, rem := decodePair(idx, n)
		g.AddEdge(u, rem, cfg.weight(s))
		idx += 1 + int64(s.Geometric(p))
	}
	return g
}

// decodePair maps a flat index in [0, C(n,2)) to the pair (u,v), u<v,
// enumerated row by row.
func decodePair(idx int64, n int) (int32, int32) {
	u := int64(0)
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return int32(u), int32(u + 1 + idx)
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// vertex connects to its k/2 nearest neighbors on each side, with every
// edge rewired with probability beta (the paper uses beta = 0.3). k must
// be even and < n.
func WattsStrogatz(n, k int, beta float64, seed uint64, cfg Config) *graph.Graph {
	if k%2 != 0 || k >= n {
		panic(fmt.Sprintf("gen: WattsStrogatz needs even k < n, got k=%d n=%d", k, n))
	}
	s := rng.New(seed, 0, 3)
	type pair struct{ u, v int32 }
	present := make(map[pair]bool, n*k/2)
	norm := func(u, v int32) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	// Ring lattice.
	edges := make([]pair, 0, n*k/2)
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			p := norm(int32(i), int32((i+j)%n))
			edges = append(edges, p)
			present[p] = true
		}
	}
	// Rewiring: replace (u,v) by (u,w) for uniform w avoiding loops and
	// duplicates.
	for i, e := range edges {
		if !s.Bernoulli(beta) {
			continue
		}
		for attempt := 0; attempt < 32; attempt++ {
			w := int32(s.Intn(n))
			if w == e.u || w == e.v {
				continue
			}
			np := norm(e.u, w)
			if present[np] {
				continue
			}
			delete(present, e)
			present[np] = true
			edges[i] = np
			break
		}
	}
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e.u, e.v, cfg.weight(s))
	}
	return g
}

// BarabasiAlbert returns a scale-free graph grown by preferential
// attachment: each new vertex attaches to k existing vertices chosen with
// probability proportional to their degree.
func BarabasiAlbert(n, k int, seed uint64, cfg Config) *graph.Graph {
	if k < 1 || k >= n {
		panic(fmt.Sprintf("gen: BarabasiAlbert needs 1 <= k < n, got k=%d n=%d", k, n))
	}
	s := rng.New(seed, 0, 4)
	g := graph.New(n)
	// Repeated-endpoint trick: choosing a uniform element of the target
	// list samples proportionally to degree.
	targets := make([]int32, 0, 2*n*k)
	// Seed clique on the first k+1 vertices.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			g.AddEdge(int32(i), int32(j), cfg.weight(s))
			targets = append(targets, int32(i), int32(j))
		}
	}
	// Targets are kept in draw order: the edge order feeds the endpoint
	// list every later draw reads, so it must be a function of the seed
	// (a map's iteration order is not).
	chosen := make([]int32, 0, k)
	for v := k + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			if t := targets[s.Intn(len(targets))]; !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			g.AddEdge(int32(v), t, cfg.weight(s))
			targets = append(targets, int32(v), t)
		}
	}
	return g
}

// RMAT returns an R-MAT graph with the paper's parameters a=0.45,
// b=c=0.22 (d=0.11) and m distinct edges over n = 2^scale vertices.
func RMAT(scale, m int, seed uint64, cfg Config) *graph.Graph {
	const a, b, c = 0.45, 0.22, 0.22
	n := 1 << scale
	s := rng.New(seed, 0, 5)
	g := graph.New(n)
	seen := make(map[uint64]bool, m)
	maxTries := 64 * m
	for len(g.Edges) < m && maxTries > 0 {
		maxTries--
		var u, v int32
		for level := 0; level < scale; level++ {
			r := s.Float64()
			switch {
			case r < a: // top-left
			case r < a+b: // top-right
				v |= 1 << level
			case r < a+b+c: // bottom-left
				u |= 1 << level
			default: // bottom-right
				u |= 1 << level
				v |= 1 << level
			}
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if seen[key] {
			continue
		}
		seen[key] = true
		g.AddEdge(u, v, cfg.weight(s))
	}
	return g
}
