package service

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/benchsnap"
	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
)

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// benchEngine builds an engine + registered graph for repeated-query
// benchmarks. The caller closes it.
func benchEngine(disablePlans bool, g *graph.Graph) *Engine {
	e := NewEngine(Config{
		Workers: 1, MaxProcessors: 16, CacheCapacity: -1, DisablePlans: disablePlans,
	})
	if _, err := e.Registry().Put("g", g); err != nil {
		panic(err)
	}
	return e
}

// ccGraph is the repeated-CC workload: mid-size, where a cold query
// pays sampling rounds, root union-find, and two n-word broadcasts that
// the warm path replaces with a label copy.
func ccGraph() *graph.Graph {
	g := gen.ErdosRenyiM(2048, 16384, 7, gen.Config{MaxWeight: 4})
	for v := 1; v < g.N; v++ {
		g.AddEdge(int32(v-1), int32(v), 1)
	}
	g.AddEdge(int32(g.N-1), 0, 1)
	return g
}

// mincutGraph is the repeated-mincut workload: a sparse graph queried
// with MaxTrials=1 at p=16 — the cheap screening query a serving tier
// issues repeatedly — where the cold path's p-way edge replication and
// its connectivity scan are a large fixed tax next to the single eager
// trial.
func mincutGraph() *graph.Graph {
	g := gen.ErdosRenyiM(16384, 16384, 7, gen.Config{MaxWeight: 4})
	for v := 1; v < g.N; v++ {
		g.AddEdge(int32(v-1), int32(v), 1)
	}
	g.AddEdge(int32(g.N-1), 0, 1)
	return g
}

// skewGraph is the trial workload for the scheduling comparison: an
// RMAT multigraph big enough that one contraction trial is a
// non-trivial unit of work to place.
func skewGraph() *graph.Graph {
	g := gen.RMAT(11, 16384, 99, gen.Config{MaxWeight: 16})
	for v := 1; v < g.N; v++ {
		g.AddEdge(int32(v-1), int32(v), 1)
	}
	return g
}

// stragglerDelay is the extra per-trial cost injected on the last rank
// in the scheduling benches — the "noisy neighbor" a static partition
// cannot route around. It is several times one trial's compute (~12ms
// here), so a static block assignment strands the straggler with a
// multi-delay tail while dynamic claiming hands its chunks to the
// other ranks after the first claim round prices it out.
const stragglerDelay = 50 * time.Millisecond

func runQuery(b *testing.B, e *Engine, req QueryRequest) {
	b.Helper()
	req.NoCache = true
	if _, err := e.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
}

var (
	mcReq = QueryRequest{Graph: "g", Algorithm: AlgMinCut, Processors: 16, MaxTrials: 1}
	ccReq = QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 4}
)

func benchQueries(b *testing.B, disablePlans bool, mk func() *graph.Graph, req QueryRequest) {
	e := benchEngine(disablePlans, mk())
	defer e.Close()
	req.NoCache = true
	// First query off the clock: it builds the plan (warm engine) and
	// fills the machine pool, the state every later query reuses.
	if _, err := e.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQuery(b, e, req)
	}
}

func BenchmarkQueryMincutWarm(b *testing.B) { benchQueries(b, false, mincutGraph, mcReq) }
func BenchmarkQueryMincutCold(b *testing.B) { benchQueries(b, true, mincutGraph, mcReq) }
func BenchmarkQueryCCWarm(b *testing.B)     { benchQueries(b, false, ccGraph, ccReq) }
func BenchmarkQueryCCCold(b *testing.B)     { benchQueries(b, true, ccGraph, ccReq) }

// runScheduled executes one mincut's trial body (the schedule only
// places trials, and Parallel proves skewGraph's cut with none) with the
// given schedule at p=4,
// slowing every trial on the last rank by stragglerDelay via the
// OnTrial hook, and returns the machine stats plus the number of
// trials the straggler ended up running — the per-worker app times and
// straggler trial count are the load-balance evidence.
func runScheduled(g *graph.Graph, sched mincut.Schedule, trials int) (*bsp.Stats, *mincut.CutResult, int) {
	var res *mincut.CutResult
	var stragglerTrials int
	st, err := bsp.Run(4, func(c *bsp.Comm) {
		straggler := c.Rank() == c.Size()-1
		ran := 0
		lo, hi := dist.BlockRange(len(g.Edges), 4, c.Rank())
		r := mincut.ParallelTrials(c, g.N, g.Edges[lo:hi], rng.New(11, uint32(c.Rank()), 0), mincut.Options{
			MaxTrials: trials,
			Schedule:  sched,
			OnTrial: func(int) {
				ran++
				if straggler {
					time.Sleep(stragglerDelay)
				}
			},
		})
		if c.Rank() == 0 {
			res = r
		}
		if straggler {
			stragglerTrials = ran
		}
	})
	if err != nil {
		panic(err)
	}
	return st, res, stragglerTrials
}

func benchScheduled(b *testing.B, sched mincut.Schedule) {
	g := skewGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runScheduled(g, sched, 16)
	}
	_ = g
}

func BenchmarkMincutStatic(b *testing.B)  { benchScheduled(b, mincut.SchedStatic) }
func BenchmarkMincutDynamic(b *testing.B) { benchScheduled(b, mincut.SchedDynamic) }

// ---------------------------------------------------------------------------
// BENCH_service.json
// ---------------------------------------------------------------------------

func bench(f func(b *testing.B)) testing.BenchmarkResult { return testing.Benchmark(f) }

// fillSchedule measures one schedule at p=4 with a straggling last rank
// and returns its critical-path wall time (max worker app time). App
// times are averaged over a few runs to tame timer noise; the straggler
// trial count (16/p under static, ~1 under dynamic once the claim rounds
// price the straggler out) is reported from the last run.
func fillSchedule(snap *benchsnap.Snapshot, name string, sched mincut.Schedule) float64 {
	g := skewGraph()
	const reps = 5
	var wallNs, idle float64
	for rep := 0; rep < reps; rep++ {
		st, res, stragglerTrials := runScheduled(g, sched, 16)
		var maxApp, sumApp time.Duration
		for _, w := range st.Workers {
			sumApp += w.AppTime
			maxApp = max(maxApp, w.AppTime)
		}
		wallNs += float64(maxApp) / reps
		// 1 − avg/max worker app time: how much of the critical-path
		// rank's span the other ranks spent waiting.
		idle += (1 - float64(sumApp)/float64(len(st.Workers))/float64(maxApp)) / reps
		if rep == reps-1 {
			snap.Add(benchsnap.Exact, "cut_value/"+name, float64(res.Value), 0, 0)
			snap.Add(benchsnap.Info, "straggler_trials/"+name, float64(stragglerTrials), -1, 0)
		}
	}
	snap.Add(benchsnap.Info, "sched_wall_ns/"+name, wallNs, -1, 0)
	snap.Add(benchsnap.Info, "idle_fraction/"+name, idle, -1, 0)
	return wallNs
}

// fillServiceSnapshot measures the warm-plan vs cold repeated-query
// throughput and the static vs dynamic trial scheduling comparison. Both
// speedups are same-process ratios (a side that did not measure yields
// Inf or NaN, which the snapshot write rejects); the cut values are exact.
func fillServiceSnapshot(snap *benchsnap.Snapshot) error {
	for _, tc := range []struct {
		alg string
		mk  func() *graph.Graph
		req QueryRequest
	}{
		{AlgMinCut, mincutGraph, mcReq},
		{AlgCC, ccGraph, ccReq},
	} {
		warm := float64(bench(func(b *testing.B) { benchQueries(b, false, tc.mk, tc.req) }).NsPerOp())
		cold := float64(bench(func(b *testing.B) { benchQueries(b, true, tc.mk, tc.req) }).NsPerOp())
		snap.Add(benchsnap.Ratio, "cache_speedup/"+tc.alg, cold/warm, +1, 0)
		snap.Add(benchsnap.Info, "warm_ns_op/"+tc.alg, warm, -1, 0)
		snap.Add(benchsnap.Info, "cold_ns_op/"+tc.alg, cold, -1, 0)
	}
	static := fillSchedule(snap, "static", mincut.SchedStatic)
	dynamic := fillSchedule(snap, "dynamic", mincut.SchedDynamic)
	snap.Add(benchsnap.Ratio, "dynamic_sched_speedup", static/dynamic, +1, 0)
	return nil
}

// TestMain writes BENCH_service.json, then BENCH_planner.json, whenever
// benchmarks were requested.
func TestMain(m *testing.M) {
	service := func() int { return benchsnap.Main(m.Run, "BENCH_service.json", fillServiceSnapshot) }
	os.Exit(benchsnap.Main(service, "BENCH_planner.json", fillPlannerSnapshot))
}
