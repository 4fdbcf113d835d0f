// Package camc (Communication-Avoiding Minimum Cuts and Components) is
// the public API of this reproduction of Gianinazzi, Kalvoda, De Palma,
// Besta, and Hoefler, "Communication-Avoiding Parallel Minimum Cuts and
// Connected Components", PPoPP 2018.
//
// The package offers three parallel graph computations, each executed on
// a BSP machine of virtual processors (goroutines) standing in for the
// paper's MPI ranks:
//
//   - ConnectedComponents: iterated-sampling connected components with
//     O(1) synchronization steps (§3.2 of the paper);
//   - ApproxMinCut: an O(log n)-approximate global minimum cut with
//     near-linear work (§3.3);
//   - MinCut: the exact global minimum cut, w.h.p., via eager sparse
//     contraction plus recursive contraction (§4) — or with certainty and
//     no trials at all when a deterministic Nagamochi–Ibaraki certificate
//     proves the min-degree cut minimum.
//
// Sequential baselines (Stoer–Wagner, Karger–Stein, BFS components) are
// exported for comparison, along with the synthetic graph generators the
// paper evaluates on. Every randomized computation is reproducible: all
// randomness derives from the Seed in Options.
//
// Quick start:
//
//	g := camc.NewGraph(4)
//	g.AddEdge(0, 1, 3)
//	g.AddEdge(1, 2, 1)
//	g.AddEdge(2, 3, 3)
//	g.AddEdge(3, 0, 2)
//	res, err := camc.MinCut(g, camc.Options{Processors: 4, Seed: 42})
//	// res.Value == 3, res.Side describes one side of the cut
package camc

import (
	"io"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
)

// Graph is a weighted undirected multigraph on vertices 0..N-1.
type Graph = graph.Graph

// Edge is one weighted undirected edge.
type Edge = graph.Edge

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadGraph parses a graph in the plain edge-list format ("n m" header,
// then "u v w" lines; weight defaults to 1).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadSNAPGraph parses the SNAP text format (headerless "u v" pairs,
// '#' comments, vertex count inferred as max id + 1).
func ReadSNAPGraph(r io.Reader) (*Graph, error) { return graph.ReadSNAP(r) }

// WriteGraph serializes a graph in the plain edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Options configures a parallel run; see core.Options. The zero value
// picks the number of CPUs, seed 1, and success probability 0.9.
type Options = core.Options

// RunStats is a run's BSP cost profile: supersteps, communication volume,
// and the application/communication time split.
type RunStats = core.RunStats

// MinCutResult carries an exact minimum cut: value, one side of the
// partition, trial count (0 when the min-degree cut is proven minimum;
// no randomness drawn), and the run's cost profile.
type MinCutResult = core.MinCutResult

// ApproxCutResult carries an O(log n)-approximate minimum cut estimate.
type ApproxCutResult = core.ApproxCutResult

// CCResult carries a connected-components labelling.
type CCResult = core.CCResult

// MinCut computes a global minimum cut of g, correct with probability at
// least opts.SuccessProb — with certainty when its certificate proves the
// min-degree cut minimum, which then returns with Trials 0. An invalid g
// (see Graph.Validate) returns g.Validate()'s error and no result; g is
// checked before the run.
func MinCut(g *Graph, opts Options) (*MinCutResult, error) { return core.MinCut(g, opts) }

// ApproxMinCut estimates the minimum cut within an O(log n) factor using
// near-linear work, a fraction of MinCut's time. An invalid g returns
// g.Validate()'s error and no result; g is checked before the run.
func ApproxMinCut(g *Graph, opts Options) (*ApproxCutResult, error) {
	return core.ApproxMinCut(g, opts)
}

// ConnectedComponents labels the connected components of g. An invalid g
// returns g.Validate()'s error and no result, the same error, byte for
// byte, whatever opts.Processors is. The edges are checked as the
// solve reads them, in its one pass over the array; g.Validate() runs
// only after that pass has failed, to name the lowest invalid edge.
func ConnectedComponents(g *Graph, opts Options) (*CCResult, error) {
	return core.ConnectedComponents(g, opts)
}

// CutValue evaluates the cut described by side on g — use it to verify
// results independently.
func CutValue(g *Graph, side []bool) uint64 { return g.CutValue(side) }

// AllMinCuts returns every distinct global minimum cut of g, each found
// with probability at least successProb (the paper's Lemma 4.3: the
// algorithm finds all minimum cuts w.h.p. — there are at most n(n-1)/2).
// The tie-preserving trials run in parallel on the BSP machine; every
// returned side shares the same value.
func AllMinCuts(g *Graph, seed uint64, successProb float64) (value uint64, sides [][]bool) {
	res, err := core.AllMinCuts(g, Options{Seed: seed, SuccessProb: successProb})
	if err != nil {
		return 0, nil
	}
	return res.Value, res.Sides
}

// ContractHeavyEdges applies the Karger–Stein §7.1 preprocessing: every
// edge heavier than bound is contracted, shrinking the graph without
// touching any minimum cut. bound must be at least the minimum cut value
// λ: the smallest weighted degree (g.MinDegreeVertex()) or CutValue of
// any side always is. An ApproxMinCut estimate is not — it is a power of
// two that can sit below λ, and contracting at it can raise the minimum
// cut. It returns the contracted graph and the vertex mapping for
// lifting results back.
func ContractHeavyEdges(g *Graph, bound uint64) (*Graph, []int32) {
	return mincut.ContractHeavyEdges(g, bound)
}

// MaxFlow computes the maximum s-t flow value of g (Dinic's algorithm)
// and one side of a minimum s-t cut. Provided for completeness as the
// flow-based alternative the paper's related work discusses: a global
// minimum cut needs n-1 such computations, which the sampling-based
// algorithms avoid.
func MaxFlow(g *Graph, s, t int32) (value uint64, sourceSide []bool) {
	nw := flow.NewNetwork(g)
	value = nw.MaxFlow(s, t)
	return value, nw.MinCutSide(s)
}

// Sequential baselines.

// StoerWagner computes the exact minimum cut deterministically in
// O(n³)-ish time — the paper's "SW" baseline.
func StoerWagner(g *Graph) (value uint64, side []bool) {
	r := mincut.StoerWagner(g)
	return r.Value, r.Side
}

// KargerStein computes the minimum cut w.h.p. by repeated recursive
// contraction — the paper's sequential "KS" baseline.
func KargerStein(g *Graph, seed uint64, successProb float64) (value uint64, side []bool) {
	r := mincut.KargerStein(g, rng.New(seed, 0, 0), successProb)
	return r.Value, r.Side
}

// SequentialCC computes connected components with a linear-time
// traversal — the paper's "BGL" baseline.
func SequentialCC(g *Graph) (labels []int32, count int) {
	r := cc.Sequential(g)
	return r.Labels, r.Count
}

// Graph generators used in the paper's evaluation (§5).

// GenConfig controls edge weights of generated graphs.
type GenConfig = gen.Config

// ErdosRenyi returns a G(n, M) graph with exactly m uniformly random
// edges.
func ErdosRenyi(n, m int, seed uint64, cfg GenConfig) *Graph {
	return gen.ErdosRenyiM(n, m, seed, cfg)
}

// WattsStrogatz returns a small-world graph (ring lattice of even degree
// k, rewiring probability beta; the paper uses beta = 0.3).
func WattsStrogatz(n, k int, beta float64, seed uint64, cfg GenConfig) *Graph {
	return gen.WattsStrogatz(n, k, beta, seed, cfg)
}

// BarabasiAlbert returns a scale-free preferential-attachment graph.
func BarabasiAlbert(n, k int, seed uint64, cfg GenConfig) *Graph {
	return gen.BarabasiAlbert(n, k, seed, cfg)
}

// RMAT returns an R-MAT graph on 2^scale vertices with m distinct edges
// (a=0.45, b=c=0.22, the paper's parameters).
func RMAT(scale, m int, seed uint64, cfg GenConfig) *Graph {
	return gen.RMAT(scale, m, seed, cfg)
}
