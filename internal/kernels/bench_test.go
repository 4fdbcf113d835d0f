package kernels

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/approxcut"
	"repro/internal/benchsnap"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
	xsort "repro/internal/sort"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// benchSortEdges builds a skewed (RMAT) edge array: heavy parallel-edge
// runs and a narrow key range, the regime the distributed sample sort
// sees after a few contraction rounds.
func benchSortEdges(m int) []graph.Edge {
	g := gen.RMAT(14, m, 99, gen.Config{MaxWeight: 100})
	return g.Edges
}

func sortEdgesStd(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

func sortEdgesRadix(es []graph.Edge) {
	kvs := xsort.Borrow(len(es))
	for i, e := range es {
		kvs[i] = xsort.KV{K: xsort.Key(e.U, e.V), V: e.W}
	}
	scratch := xsort.Borrow(len(es))
	xsort.Pairs(kvs, scratch)
	for i, kv := range kvs {
		es[i] = graph.Edge{U: xsort.KeyU(kv.K), V: xsort.KeyV(kv.K), W: kv.V}
	}
	xsort.Release(scratch)
	xsort.Release(kvs)
}

// combineStd is the pre-radix CombineParallel: comparison sort of a
// normalized copy followed by an in-place merge.
func combineStd(edges []graph.Edge) []graph.Edge {
	es := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		if e.IsLoop() {
			continue
		}
		es = append(es, e.Normalize())
	}
	sortEdgesStd(es)
	return combineSorted(es)
}

// combineSorted merges runs of parallel edges in a slice already sorted
// by (U, V); the merge happens in place and the shortened slice is
// returned. Loops must already have been removed.
func combineSorted(es []graph.Edge) []graph.Edge {
	out := es[:0]
	for _, e := range es {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.U == e.U && last.V == e.V {
				last.W += e.W
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// ---------------------------------------------------------------------------
// Pre-arena Karger–Stein replica (allocation baseline)
// ---------------------------------------------------------------------------

// cloneContractTo replays the pre-arena contraction kernel: every
// recursion node clones the O(n²) matrix and allocates its bookkeeping
// (alive set, degrees, union-find, mapping, compacted output) fresh. It
// exists only as the allocation baseline for the ks_trial benchmark.
func cloneContractTo(m *graph.Matrix, t int, st *rng.Stream) (*graph.Matrix, []int32) {
	n := m.N
	w := m.Clone()
	alive := make([]int32, n)
	for i := range alive {
		alive[i] = int32(i)
	}
	deg := make([]uint64, n)
	var total uint64
	for i := 0; i < n; i++ {
		deg[i] = w.WeightedDegree(int32(i))
		total += deg[i]
	}
	uf := graph.NewUnionFind(n)
	live := n
	for live > t && total > 0 {
		x := st.Uint64n(total)
		var u int32 = -1
		for _, a := range alive[:live] {
			if x < deg[a] {
				u = a
				break
			}
			x -= deg[a]
		}
		if u < 0 {
			break
		}
		y := st.Uint64n(deg[u])
		var v int32 = -1
		rowU := w.W[int(u)*n : (int(u)+1)*n]
		for _, b := range alive[:live] {
			if b == u {
				continue
			}
			if y < rowU[b] {
				v = b
				break
			}
			y -= rowU[b]
		}
		if v < 0 {
			break
		}
		wuv := rowU[v]
		rowV := w.W[int(v)*n : (int(v)+1)*n]
		for _, k := range alive[:live] {
			if k == u || k == v {
				continue
			}
			nw := rowU[k] + rowV[k]
			rowU[k] = nw
			w.W[int(k)*n+int(u)] = nw
			w.W[int(k)*n+int(v)] = 0
		}
		deg[u] = deg[u] + deg[v] - 2*wuv
		total -= 2 * wuv
		rowU[v] = 0
		w.W[int(v)*n+int(u)] = 0
		uf.Union(u, v)
		for idx, a := range alive[:live] {
			if a == v {
				alive[idx] = alive[live-1]
				live--
				break
			}
		}
	}
	mapping := make([]int32, n)
	classToLabel := make([]int32, n)
	for idx := 0; idx < live; idx++ {
		classToLabel[uf.Find(alive[idx])] = int32(idx)
	}
	for i := 0; i < n; i++ {
		mapping[i] = classToLabel[uf.Find(int32(i))]
	}
	out := graph.NewMatrix(live)
	for ai := 0; ai < live; ai++ {
		srcRow := w.W[int(alive[ai])*n : (int(alive[ai])+1)*n]
		dstRow := out.W[ai*live : (ai+1)*live]
		for aj := 0; aj < live; aj++ {
			dstRow[aj] = srcRow[alive[aj]]
		}
		dstRow[ai] = 0
	}
	return out, mapping
}

// cloneKSRecurse is the pre-arena recursion shape. Its base case is the
// package's own — an exact Stoer–Wagner solve at mincut.BaseCaseSize —
// in the allocating style of everything else here: a fresh graph, and
// StoerWagner's fresh matrix and bookkeeping, per leaf. With the same
// leaves on both sides the pair of timings compares what it claims to,
// arena reuse against per-node allocation.
func cloneKSRecurse(m *graph.Matrix, st *rng.Stream) (uint64, []bool) {
	n := m.N
	if n <= mincut.BaseCaseSize {
		r := mincut.StoerWagner(m.ToGraph())
		return r.Value, r.Side
	}
	t := int(math.Ceil(float64(n)/math.Sqrt2)) + 1
	if t >= n {
		t = n - 1
	}
	bestVal := uint64(math.MaxUint64)
	var bestSide []bool
	for branch := 0; branch < 2; branch++ {
		cm, mapping := cloneContractTo(m, t, st)
		val, side := cloneKSRecurse(cm, st)
		if val < bestVal {
			bestVal = val
			lifted := make([]bool, n)
			for v := 0; v < n; v++ {
				lifted[v] = side[mapping[v]]
			}
			bestSide = lifted
		}
	}
	return bestVal, bestSide
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

var sortSizes = []int{10_000, 100_000, 300_000}

func BenchmarkEdgeSortRadix(b *testing.B) {
	for _, m := range sortSizes {
		base := benchSortEdges(m)
		work := make([]graph.Edge, len(base))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, base)
				sortEdgesRadix(work)
			}
		})
	}
}

func BenchmarkEdgeSortStd(b *testing.B) {
	for _, m := range sortSizes {
		base := benchSortEdges(m)
		work := make([]graph.Edge, len(base))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, base)
				sortEdgesStd(work)
			}
		})
	}
}

func BenchmarkCombineFused(b *testing.B) {
	base := benchSortEdges(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.CombineParallel(base)
	}
}

func BenchmarkCombineStd(b *testing.B) {
	base := benchSortEdges(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		combineStd(base)
	}
}

// ksBenchGraph is connected (cycle + random edges) so the cut is
// meaningful and the recursion depth is representative.
func ksBenchGraph() *graph.Graph {
	g := gen.ErdosRenyiM(150, 1800, 7, gen.Config{MaxWeight: 6})
	for v := 0; v < g.N; v++ {
		g.AddEdge(int32(v), int32((v+1)%g.N), 1)
	}
	return g
}

func BenchmarkKSTrialArena(b *testing.B) {
	g := ksBenchGraph()
	st := rng.New(3, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mincut.KargerStein(g, st, 0.5)
	}
}

func BenchmarkKSTrialClone(b *testing.B) {
	g := ksBenchGraph()
	m := graph.MatrixFromGraph(g)
	trials := mincut.KargerSteinTrials(g.N, 0.5)
	st := rng.New(3, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < trials; k++ {
			cloneKSRecurse(m, st)
		}
	}
}

func BenchmarkRemapDense(b *testing.B) {
	const n = 1 << 16
	labels := make([]int32, n)
	st := rng.New(5, 0, 0)
	for i := range labels {
		labels[i] = int32(st.Uint64n(n / 64))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := graph.GetRemap(n)
		for _, l := range labels {
			r.Of(l)
		}
		graph.PutRemap(r)
	}
}

func BenchmarkRemapMap(b *testing.B) {
	const n = 1 << 16
	labels := make([]int32, n)
	st := rng.New(5, 0, 0)
	for i := range labels {
		labels[i] = int32(st.Uint64n(n / 64))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		remap := make(map[int32]int32)
		for _, l := range labels {
			if _, ok := remap[l]; !ok {
				remap[l] = int32(len(remap))
			}
		}
	}
}

// ufBenchN is cc_batch's vertex count: 16 edges a vertex in attachment
// order, the regime where all but one edge in sixteen falls inside the
// giant component.
const ufBenchN = 100_000

// ufBenchEdges returns the two orders the union-find is timed on: a
// Barabási–Albert edge array and a descending chain followed by a union
// of every vertex with the deepest one.
func ufBenchEdges() (ba, chain []graph.Edge) {
	ba = gen.BarabasiAlbert(ufBenchN, 16, 3, gen.Config{}).Edges
	for _, pr := range descendingChain(ufBenchN) {
		chain = append(chain, graph.Edge{U: pr[0], V: pr[1]})
	}
	for v := int32(0); v < ufBenchN; v++ {
		chain = append(chain, graph.Edge{U: ufBenchN - 1, V: v})
	}
	return ba, chain
}

// benchUnionPass is one Reset + Union pass over edges, the whole of what
// a connected-components rank does with its slice.
func benchUnionPass(b *testing.B, uf *graph.UnionFind, edges []graph.Edge) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uf.Reset(ufBenchN)
		for _, e := range edges {
			uf.Union(e.U, e.V)
		}
	}
}

// benchRefUnionPass is benchUnionPass over the textbook reference; a
// shared body would put an interface call on both sides of the ratio.
func benchRefUnionPass(b *testing.B, uf *refUnionFind, edges []graph.Edge) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uf.Reset(ufBenchN)
		for _, e := range edges {
			uf.Union(e.U, e.V)
		}
	}
}

func BenchmarkUnionFind(b *testing.B) {
	ba, chain := ufBenchEdges()
	b.Run("rem/ba", func(b *testing.B) { benchUnionPass(b, graph.NewUnionFind(0), ba) })
	b.Run("ref/ba", func(b *testing.B) { benchRefUnionPass(b, &refUnionFind{}, ba) })
	b.Run("rem/chain", func(b *testing.B) { benchUnionPass(b, graph.NewUnionFind(0), chain) })
	b.Run("ref/chain", func(b *testing.B) { benchRefUnionPass(b, &refUnionFind{}, chain) })
}

// bitsPerCoin is the mean number of random bits n coins read through one
// rng.Bits on a fixed seed; keep 0 draws each threshold uniformly from
// [1, 2⁵³).
func bitsPerCoin(keep uint64, n int) float64 {
	coins, keeps := rng.NewBits(rng.New(1, 0, 0)), rng.New(2, 0, 0)
	for i := 0; i < n; i++ {
		k := keep
		if k == 0 {
			k = keeps.Uint64()>>11 | 1
		}
		coins.Below(k)
	}
	return float64(coins.Used()) / float64(n)
}

// approxRun is the ledger of one cold early-stopping approximate cut at
// p = 2 on Watts–Strogatz n = 2 048.
func approxRun() (*bsp.Stats, error) {
	g := gen.WattsStrogatz(2048, 8, 0.3, 1, gen.Config{})
	return bsp.Run(2, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		approxcut.Parallel(c, g.N, g.Edges[lo:hi], rng.New(1, uint32(c.Rank()), 0), approxcut.Options{})
	})
}

// benchMinCutWS is benchmark/'s mincut_batch input at seed 1 (its graph
// seed is 1 ^ 0x6a09e667f3bcc908): Watts–Strogatz n = 256, k = 12.
var benchMinCutWS = gen.WattsStrogatz(256, 12, 0.3, 1^0x6a09e667f3bcc908, gen.Config{})

// plantedWS is two Watts–Strogatz(128, 12) halves joined by 3 edges: λ = 3
// below λ̂ = 6, so the certificate fails and the trials must run.
var plantedWS = gen.PlantedCut(128, 12, 3, 1)

// minCutP1 runs one cold exact minimum cut of g at p = 1 through entry —
// Parallel, or the trial body it falls back to — and returns its wall
// time.
func minCutP1(g *graph.Graph, entry func(*bsp.Comm, int, []graph.Edge, *rng.Stream, mincut.Options) *mincut.CutResult) (time.Duration, error) {
	start := time.Now()
	_, err := bsp.Run(1, func(c *bsp.Comm) {
		entry(c, g.N, g.Edges, rng.New(1, 0, 0), mincut.Options{})
	})
	return time.Since(start), err
}

// pairedMedians is the median time of a and of b, in seconds, over pairs
// runs that alternate a and b op by op, so a neighbour's load lands on
// both sides alike; whole testing.Benchmark runs, seconds apart, read
// 0.97–1.26 for the same ratio.
func pairedMedians(pairs int, a, b func() (time.Duration, error)) (ma, mb float64, err error) {
	ta, tb := make([]float64, pairs), make([]float64, pairs)
	for i := range pairs {
		da, err := a()
		if err != nil {
			return 0, 0, err
		}
		db, err := b()
		if err != nil {
			return 0, 0, err
		}
		ta[i], tb[i] = da.Seconds(), db.Seconds()
	}
	return stats.Median(ta), stats.Median(tb), nil
}

// pairedRatio is median(a) / median(b) over pairedMedians' runs.
func pairedRatio(pairs int, a, b func() (time.Duration, error)) (float64, error) {
	ma, mb, err := pairedMedians(pairs, a, b)
	return ma / mb, err
}

// timed wraps an op that cannot fail as a pairedMedians side.
func timed(op func()) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		op()
		return time.Since(start), nil
	}
}

// certFailRatioMax is the most a failed certificate may add to a run
// that must draw its trials anyway.
const certFailRatioMax = 1.10

// ccP1 runs one cold connected-components labelling of the n-vertex edge
// array at p = 1, after a separate graph.ValidateEdges pass over it when
// validate is set, and returns its wall time.
func ccP1(n int, edges []graph.Edge, validate bool) (time.Duration, error) {
	start := time.Now()
	if validate {
		if err := graph.ValidateEdges(n, edges, 0); err != nil {
			return 0, err
		}
	}
	_, err := bsp.Run(1, func(c *bsp.Comm) {
		cc.Parallel(c, n, edges, rng.New(1, 0, 0), cc.Options{})
	})
	return time.Since(start), err
}

// ccCheckedRatioMax is the most the checked single pass may cost against
// a validation pass plus the same run: a check that streamed the edges
// again, or one as dear as ValidateEdges, would read above it.
const ccCheckedRatioMax = 0.90

// checkedUnionPass is the floor of a p = 1 connected-components run: one
// Reset, then Valid and Union per edge of the array, nothing else.
func checkedUnionPass(uf *graph.UnionFind, n int, edges []graph.Edge) {
	uf.Reset(n)
	for _, e := range edges {
		if !e.Valid(n) {
			panic(graph.ErrInvalidEdge)
		}
		uf.Union(e.U, e.V)
	}
}

// checkedPackedPass is checkedUnionPass over packed u<<32|v words, the
// 8-byte view of an unweighted edge (its check has no weight to read).
func checkedPackedPass(uf *graph.UnionFind, n int, words []uint64) {
	uf.Reset(n)
	for _, w := range words {
		u, v := int32(w>>32), int32(uint32(w))
		if uint(u) >= uint(n) || uint(v) >= uint(n) || u == v {
			panic(graph.ErrInvalidEdge)
		}
		uf.Union(u, v)
	}
}

// ccUnionFloorMax is the most a cold p = 1 run may cost against its
// checked union pass alone. An exact round is that pass, one labelling
// pass over n and the fresh Labels (1.29–1.36 on a 2-core host); the
// loop that drew an index per edge, with the root's identity, relabel
// and remap passes over n, read 1.99 on the same host.
const ccUnionFloorMax = 1.6

// ---------------------------------------------------------------------------
// BENCH_kernels.json
// ---------------------------------------------------------------------------

func bench(f func(b *testing.B)) testing.BenchmarkResult { return testing.Benchmark(f) }

// fastest keeps the quickest of three timings. The rank-free union pass
// runs at the speed the 25.6 MB edge array streams from DRAM, so a busy
// neighbour slows one side of its ratio and not the other (3.0–6.2×
// measured single-shot); noise only ever adds time.
func fastest(f func(b *testing.B)) testing.BenchmarkResult {
	best := bench(f)
	for i := 0; i < 2; i++ {
		if r := bench(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// speedup is base/opt ns per op, the same-process ratio the gate reads.
// A side that did not measure yields Inf or NaN, which the snapshot
// write rejects.
func speedup(base, opt testing.BenchmarkResult) float64 {
	return float64(base.NsPerOp()) / float64(opt.NsPerOp())
}

// fillKernelSnapshot re-times the kernel pairs head-to-head. Speedups are
// gated as same-process ratios and steady-state allocs/op as counts with
// a ±2 slack (a one-alloc wobble at a short CI benchtime); raw ns/op is
// informational.
func fillKernelSnapshot(snap *benchsnap.Snapshot) error {
	pair := func(name string, opt, base testing.BenchmarkResult) {
		snap.Add(benchsnap.Ratio, name+"_speedup", speedup(base, opt), +1, 0)
		snap.Add(benchsnap.Count, name+"_allocs_op", float64(opt.AllocsPerOp()), -1, 2)
		snap.Add(benchsnap.Info, name+"_ns_op", float64(opt.NsPerOp()), -1, 0)
		snap.Add(benchsnap.Info, name+"_baseline_ns_op", float64(base.NsPerOp()), -1, 0)
	}

	// The sort pairs alternate op by op, about a second of sorting per
	// size.
	for _, m := range sortSizes {
		base := benchSortEdges(m)
		work := make([]graph.Edge, len(base))
		std, radix, err := pairedMedians(4_000_000/m,
			timed(func() { copy(work, base); sortEdgesStd(work) }),
			timed(func() { copy(work, base); sortEdgesRadix(work) }))
		if err != nil {
			return err
		}
		snap.Add(benchsnap.Ratio, fmt.Sprintf("edge_sort_speedup/m=%d", m), std/radix, +1, 0)
		snap.Add(benchsnap.Info, fmt.Sprintf("edge_sort_radix_ns_op/m=%d", m), radix*1e9, -1, 0)
	}

	combineIn := benchSortEdges(100_000)
	fused := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			graph.CombineParallel(combineIn)
		}
	})
	std := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			combineStd(combineIn)
		}
	})
	pair("combine", fused, std)

	g := ksBenchGraph()
	trials := mincut.KargerSteinTrials(g.N, 0.5)
	stA := rng.New(3, 0, 0)
	arena := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mincut.KargerStein(g, stA, 0.5)
		}
	})
	mat := graph.MatrixFromGraph(g)
	stC := rng.New(3, 0, 0)
	clone := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < trials; k++ {
				cloneKSRecurse(mat, stC)
			}
		}
	})
	snap.Add(benchsnap.Ratio, "ks_alloc_reduction", float64(clone.AllocsPerOp())/float64(arena.AllocsPerOp()), +1, 0)
	// Arena allocs per trial amortize one-time pool growth over b.N, so
	// the raw figure moves with benchtime; the reduction above is the
	// gated claim.
	snap.Add(benchsnap.Info, "ks_arena_allocs_per_trial", float64(arena.AllocsPerOp())/float64(trials), -1, 0)
	snap.Add(benchsnap.Info, "ks_arena_ns_op", float64(arena.NsPerOp()), -1, 0)
	snap.Add(benchsnap.Info, "ks_clone_ns_op", float64(clone.NsPerOp()), -1, 0)

	// The trial count is the multiplier under every minimum-cut timing
	// and a pure function of (n, m, p): pinned on the benchmark's input
	// (eager target at the exact base case) and on one whose recursion
	// branches, so a changed success bound is a gated diff.
	snap.Add(benchsnap.Exact, "trials/ws256_m1536_p0.9", float64(mincut.Trials(256, 1536, 0.9)), -1, 0)
	snap.Add(benchsnap.Exact, "trials/er600_m3000_p0.9", float64(mincut.Trials(600, 3000, 0.9)), -1, 0)

	const n = 1 << 16
	labels := make([]int32, n)
	stR := rng.New(5, 0, 0)
	for i := range labels {
		labels[i] = int32(stR.Uint64n(n / 64))
	}
	dense := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := graph.GetRemap(n)
			for _, l := range labels {
				r.Of(l)
			}
			graph.PutRemap(r)
		}
	})
	viaMap := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			remap := make(map[int32]int32)
			for _, l := range labels {
				if _, ok := remap[l]; !ok {
					remap[l] = int32(len(remap))
				}
			}
		}
	})
	pair("remap", dense, viaMap)

	ba, chain := ufBenchEdges()
	rem, ref := graph.NewUnionFind(0), &refUnionFind{}
	pair("unionfind", fastest(func(b *testing.B) { benchUnionPass(b, rem, ba) }),
		fastest(func(b *testing.B) { benchRefUnionPass(b, ref, ba) }))
	// No reference side: the row is there so a hooking rule that loses
	// the amortised bound on an order numbered against it shows up.
	snap.Add(benchsnap.Info, "unionfind_chain_ns_op",
		float64(bench(func(b *testing.B) { benchUnionPass(b, rem, chain) }).NsPerOp()), -1, 0)

	// The eager round's draw: a 64-bit read against the rolled Philox
	// loop, alternating batch by batch, and a unit-weight m = 1 536 edge
	// draw against the division and the n/8 index it replaced, whose
	// sides take the quickest of three for the reason unionfind does.
	st, rolled := rng.New(1, 0, 0), newRolledStream(1, 0, 0)
	philox, rolledNs, err := pairedMedians(4000,
		timed(func() { drawStreamUint64(st) }), timed(func() { drawRolledUint64(rolled) }))
	if err != nil {
		return err
	}
	snap.Add(benchsnap.Ratio, "philox_speedup", rolledNs/philox, +1, 0)
	snap.Add(benchsnap.Count, "philox_allocs_op", testing.AllocsPerRun(100, func() { drawStreamUint64(st) }), -1, 2)
	snap.Add(benchsnap.Info, "philox_ns_op", philox*1e9, -1, 0)
	snap.Add(benchsnap.Info, "philox_baseline_ns_op", rolledNs*1e9, -1, 0)
	unit := drawWeights()["unit"]
	ps, ds := rng.NewPrefixSampler(unit), newDivSampler(unit)
	pair("bounded", fastest(func(b *testing.B) { benchPrefixSample(b, ps, st) }),
		fastest(func(b *testing.B) { benchDivSample(b, ds, st) }))

	// The upload path: one parse and one write of serve_mix's largest
	// body — R-MAT scale 12, 32 768 edges, unit weights — allocate a
	// constant, not a string per line or an fmt call per edge.
	rmat := gen.RMAT(12, 32768, 1, gen.Config{})
	var body bytes.Buffer
	if err := graph.WriteEdgeList(&body, rmat); err != nil {
		return err
	}
	parse := func() {
		if _, err := graph.ReadEdgeList(bytes.NewReader(body.Bytes())); err != nil {
			panic(err)
		}
	}
	write := func() {
		if err := graph.WriteEdgeList(io.Discard, rmat); err != nil {
			panic(err)
		}
	}
	m := float64(rmat.M())
	snap.Add(benchsnap.Exact, "edgelist_parse_allocs/rmat4096", testing.AllocsPerRun(10, parse), -1, 0)
	snap.Add(benchsnap.Exact, "edgelist_write_allocs/rmat4096", testing.AllocsPerRun(10, write), -1, 0)
	parseNs, writeNs, err := pairedMedians(100, timed(parse), timed(write))
	if err != nil {
		return err
	}
	snap.Add(benchsnap.Info, "edgelist_parse_ns_edge/rmat4096", parseNs*1e9/m, -1, 0)
	snap.Add(benchsnap.Info, "edgelist_write_ns_edge/rmat4096", writeNs*1e9/m, -1, 0)

	// The approximate cut's coins: a fair coin must read one bit and a
	// random threshold about two, a cold scan must show the input
	// connected inside its first round, and a level whose first trial
	// disconnects must draw no other — a word per coin, a separate
	// connectivity run or a whole level drawn ahead of its probe would
	// each move one of these.
	snap.Add(benchsnap.Exact, "rng_bits_per_coin/keep=2^52", bitsPerCoin(1<<52, 100_000), -1, 0)
	snap.Add(benchsnap.Exact, "rng_bits_per_coin/random", bitsPerCoin(0, 100_000), -1, 0)
	ac, err := approxRun()
	if err != nil {
		return err
	}
	snap.Add(benchsnap.Exact, "approxcut_supersteps/ws2048/p=2", float64(ac.Supersteps), -1, 0)
	snap.Add(benchsnap.Exact, "approxcut_ops/ws2048/p=2", float64(ac.MaxOps), -1, 0)

	// The exact cut's certificate: the passes it takes to prove the
	// benchmark's input, and what it costs a run it cannot prove — full
	// Parallel over the trial body alone on the planted cut. The ratio
	// gates at certFailRatioMax whatever it measured: a measurement
	// above that fails the snapshot.
	_, bound := benchMinCutWS.MinDegreeVertex()
	ok, passes := mincut.Certify(benchMinCutWS, bound)
	if !ok {
		return fmt.Errorf("the benchmark's ws256 did not certify")
	}
	snap.Add(benchsnap.Exact, "mincut_certify_passes/ws256", float64(passes), -1, 0)
	ratio, err := pairedRatio(400,
		func() (time.Duration, error) { return minCutP1(plantedWS, mincut.Parallel) },
		func() (time.Duration, error) { return minCutP1(plantedWS, mincut.ParallelTrials) })
	if err != nil {
		return err
	}
	if ratio > certFailRatioMax {
		return fmt.Errorf("mincut_cert_fail_ratio/planted256/p=1 = %.3f, above %.2f", ratio, certFailRatioMax)
	}
	snap.Metrics = append(snap.Metrics, benchsnap.Metric{ID: "mincut_cert_fail_ratio/planted256/p=1",
		Value: ratio, Kind: benchsnap.Ratio, Better: -1, Tol: certFailRatioMax/ratio - 1})

	// Connected components checks each edge inside its union pass, so the
	// edge array streams once; against a ValidateEdges pass and the same
	// run, in the cc_batch regime (every rank takes its whole slice) at
	// p = 1. Gated at ccCheckedRatioMax like the row above.
	ratio, err = pairedRatio(40,
		func() (time.Duration, error) { return ccP1(ufBenchN, ba, false) },
		func() (time.Duration, error) { return ccP1(ufBenchN, ba, true) })
	if err != nil {
		return err
	}
	if ratio > ccCheckedRatioMax {
		return fmt.Errorf("cc_checked_pass_ratio/ba100k/p=1 = %.3f, above %.2f", ratio, ccCheckedRatioMax)
	}
	snap.Metrics = append(snap.Metrics, benchsnap.Metric{ID: "cc_checked_pass_ratio/ba100k/p=1",
		Value: ratio, Kind: benchsnap.Ratio, Better: -1, Tol: ccCheckedRatioMax/ratio - 1})

	// The same cold run against the floor it cannot beat, the checked
	// union pass over the same array; gated at ccUnionFloorMax.
	uf := graph.NewUnionFind(ufBenchN)
	ratio, err = pairedRatio(40,
		func() (time.Duration, error) { return ccP1(ufBenchN, ba, false) },
		timed(func() { checkedUnionPass(uf, ufBenchN, ba) }))
	if err != nil {
		return err
	}
	if ratio > ccUnionFloorMax {
		return fmt.Errorf("cc_union_floor_ratio/ba100k/p=1 = %.3f, above %.2f", ratio, ccUnionFloorMax)
	}
	snap.Metrics = append(snap.Metrics, benchsnap.Metric{ID: "cc_union_floor_ratio/ba100k/p=1",
		Value: ratio, Kind: benchsnap.Ratio, Better: -1, Tol: ccUnionFloorMax/ratio - 1})

	// What the packed 8-byte edge view would save that pass: below 1 it
	// streams faster than the 16-byte graph.Edge array.
	packed := make([]uint64, len(ba))
	for i, e := range ba {
		packed[i] = uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
	}
	ratio, err = pairedRatio(40,
		timed(func() { checkedPackedPass(uf, ufBenchN, packed) }),
		timed(func() { checkedUnionPass(uf, ufBenchN, ba) }))
	if err != nil {
		return err
	}
	snap.Add(benchsnap.Info, "cc_union_packed_ratio/ba100k", ratio, -1, 0)
	return nil
}

// TestMain writes BENCH_kernels.json whenever benchmarks were requested.
func TestMain(m *testing.M) {
	os.Exit(benchsnap.Main(m.Run, "BENCH_kernels.json", fillKernelSnapshot))
}
