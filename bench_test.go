// Benchmarks mirroring the paper's evaluation: one benchmark per table
// and figure (§5). Each runs a scaled-down instance of the figure's
// workload and reports the figure's metric as custom benchmark outputs
// (comm_frac, supersteps, misses/op, ipm, …). The cmd/bench harness runs
// the full sweeps; these benches give the one-command `go test -bench=.`
// view of every experiment.
package camc

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cachesim"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/perfmodel"
	"repro/internal/planner"
	"repro/internal/rng"
)

// paperMinCut runs §4's exact minimum cut as the paper states it — the
// trial body, no certificate — on a pooled p-processor machine, as
// cmd/bench's figures do: every mincut input below has a min-degree cut
// that core.MinCut proves minimum without drawing a trial.
func paperMinCut(b *testing.B, g *graph.Graph, p int, seed uint64) core.RunStats {
	par := planner.RunParams{Seed: seed}.Defaulted()
	st, err := planner.RunBlocks(context.Background(), planner.Shape{P: p}, g.Edges, func(c *bsp.Comm, local []graph.Edge) {
		mincut.ParallelTrials(c, g.N, local, par.Stream(c), mincut.Options{SuccessProb: par.SuccessProb})
	})
	if err != nil {
		b.Fatal(err)
	}
	return core.StatsOf(st)
}

// reportStats attaches the paper's measurement set to a benchmark.
func reportStats(b *testing.B, st core.RunStats) {
	b.ReportMetric(st.CommFraction, "comm_frac")
	b.ReportMetric(float64(st.Supersteps), "supersteps")
	b.ReportMetric(float64(st.CommVolume), "comm_words")
}

// BenchmarkTable1Bounds measures the exact minimum cut's BSP cost
// counters (supersteps, computation, volume) on a fixed workload; Table 1
// asserts how they must scale — the cmd/bench table1 experiment prints the
// growth-ratio comparison in full.
func BenchmarkTable1Bounds(b *testing.B) {
	for _, n := range []int{256, 512} {
		g := gen.ErdosRenyiM(n, n*16, 1, gen.Config{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var st core.RunStats
			for i := 0; i < b.N; i++ {
				st = paperMinCut(b, g, 4, uint64(i+1))
			}
			reportStats(b, st)
			b.ReportMetric(float64(st.Ops), "bsp_comp")
			b.ReportMetric(perfmodel.MCVolume(float64(n), 4), "bound_volume")
		})
	}
}

// BenchmarkFig1MCStrongScalingSparse: exact min cut on a sparse
// Erdős–Rényi graph across processor counts (Figure 1a/1b).
func BenchmarkFig1MCStrongScalingSparse(b *testing.B) {
	n := 512
	g := gen.ErdosRenyiM(n, n*16, 1, gen.Config{})
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var st core.RunStats
			for i := 0; i < b.N; i++ {
				st = paperMinCut(b, g, p, uint64(i+1))
			}
			reportStats(b, st)
		})
	}
}

// BenchmarkFig3aCCSparse: connected components on a sparse
// Barabási–Albert graph, our algorithm vs the three baselines
// (Figure 3a).
func BenchmarkFig3aCCSparse(b *testing.B) {
	g := gen.BarabasiAlbert(50_000, 16, 1, gen.Config{})
	benchCCImplementations(b, g)
}

// BenchmarkFig3bCCDense: connected components on a dense R-MAT graph
// (Figure 3b).
func BenchmarkFig3bCCDense(b *testing.B) {
	g := gen.RMAT(13, (1<<13)*32, 1, gen.Config{})
	benchCCImplementations(b, g)
}

func benchCCImplementations(b *testing.B, g *graph.Graph) {
	const p = 4
	b.Run("CC", func(b *testing.B) {
		var st core.RunStats
		for i := 0; i < b.N; i++ {
			res, err := core.ConnectedComponents(g, core.Options{Processors: p, Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			st = res.Stats
		}
		reportStats(b, st)
	})
	b.Run("BGL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.Sequential(g)
		}
	})
	b.Run("PBGL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := bsp.Run(p, func(c *bsp.Comm) {
				var in *graph.Graph
				if c.Rank() == 0 {
					in = g
				}
				n, local := dist.ScatterGraph(c, 0, in)
				cc.LabelPropagation(c, n, local)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Galois", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.SharedMemory(g, p)
		}
	})
}

// BenchmarkFig4aCCCacheMisses: simulated LLC misses of sequential CC vs
// the BGL and Galois baselines (Figure 4a; misses/op reported).
func BenchmarkFig4aCCCacheMisses(b *testing.B) {
	g := gen.RMAT(14, (1<<14)*32, 1, gen.Config{})
	kernels := map[string]func(c *cachesim.Cache){
		"BGL":    func(c *cachesim.Cache) { cachesim.BFSCC(c, g) },
		"CC":     func(c *cachesim.Cache) { cachesim.SamplingCC(c, g, rng.New(1, 0, 0), 0.5) },
		"Galois": func(c *cachesim.Cache) { cachesim.UnionFindCC(c, g) },
	}
	for _, name := range []string{"BGL", "CC", "Galois"} {
		b.Run(name, func(b *testing.B) {
			var misses, ipm float64
			for i := 0; i < b.N; i++ {
				c := cachesim.New(1<<15, 8)
				kernels[name](c)
				misses = float64(c.Misses())
				ipm = c.IPM()
			}
			b.ReportMetric(misses, "sim_misses")
			b.ReportMetric(ipm, "ipm")
		})
	}
}

// BenchmarkFig4dCCStrongScaling: CC app/comm split across processors
// (Figure 4d).
func BenchmarkFig4dCCStrongScaling(b *testing.B) {
	g := gen.RMAT(13, (1<<13)*32, 1, gen.Config{})
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var st core.RunStats
			for i := 0; i < b.N; i++ {
				res, err := core.ConnectedComponents(g, core.Options{Processors: p, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			reportStats(b, st)
		})
	}
}

// BenchmarkFig5aAppMCStrong: approximate min cut strong scaling on a
// dense R-MAT graph (Figure 5a).
func BenchmarkFig5aAppMCStrong(b *testing.B) {
	g := gen.RMAT(11, (1<<11)*64, 1, gen.Config{})
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var st core.RunStats
			for i := 0; i < b.N; i++ {
				res, err := core.ApproxMinCut(g, core.Options{Processors: p, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			reportStats(b, st)
		})
	}
}

// BenchmarkFig5bAppMCWeak: approximate min cut weak scaling — edges and
// processors grow together; ns/op should stay roughly flat (Figure 5b).
func BenchmarkFig5bAppMCWeak(b *testing.B) {
	const edgesPerProc = 1 << 15
	for _, p := range []int{1, 2, 4} {
		g := gen.RMAT(10, edgesPerProc*p, 1, gen.Config{})
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ApproxMinCut(g, core.Options{Processors: p, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6MCStrongScalingDense: exact min cut strong scaling on a
// dense graph (Figure 6).
func BenchmarkFig6MCStrongScalingDense(b *testing.B) {
	n := 384
	g := gen.ErdosRenyiM(n, n*48, 1, gen.Config{})
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var st core.RunStats
			for i := 0; i < b.N; i++ {
				st = paperMinCut(b, g, p, uint64(i+1))
			}
			reportStats(b, st)
		})
	}
}

// BenchmarkFig7MCWeakScaling: exact min cut weak scaling — vertices per
// processor fixed (Figure 7; paper shape: time grows ~linearly in n).
func BenchmarkFig7MCWeakScaling(b *testing.B) {
	const perProc = 96
	for _, p := range []int{1, 2, 4} {
		n := perProc * p
		g := gen.WattsStrogatz(n, 32, 0.3, 1, gen.Config{})
		b.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				paperMinCut(b, g, p, uint64(i+1))
			}
		})
	}
}

// BenchmarkFig8IPM: instructions-per-miss of the minimum cut
// implementations (Figure 8a) and the CC implementations (Figure 8b).
func BenchmarkFig8IPM(b *testing.B) {
	gCut := gen.ErdosRenyiM(384, 384*16, 1, gen.Config{})
	gCC := gen.RMAT(14, (1<<14)*32, 1, gen.Config{})
	cases := map[string]func(c *cachesim.Cache){
		"8a-SW":     func(c *cachesim.Cache) { cachesim.StoerWagnerKernel(c, gCut) },
		"8a-KS":     func(c *cachesim.Cache) { cachesim.KargerSteinKernel(c, gCut, rng.New(1, 0, 0), 2) },
		"8a-MC":     func(c *cachesim.Cache) { cachesim.MCKernel(c, gCut, rng.New(1, 0, 0), 16) },
		"8b-BGL":    func(c *cachesim.Cache) { cachesim.BFSCC(c, gCC) },
		"8b-CC":     func(c *cachesim.Cache) { cachesim.SamplingCC(c, gCC, rng.New(1, 0, 0), 0.5) },
		"8b-Galois": func(c *cachesim.Cache) { cachesim.UnionFindCC(c, gCC) },
	}
	for _, name := range []string{"8a-SW", "8a-KS", "8a-MC", "8b-BGL", "8b-CC", "8b-Galois"} {
		b.Run(name, func(b *testing.B) {
			var ipm float64
			for i := 0; i < b.N; i++ {
				c := cachesim.New(1<<15, 8)
				cases[name](c)
				ipm = c.IPM()
			}
			b.ReportMetric(ipm, "ipm")
		})
	}
}

// BenchmarkFig9SeqCacheEfficiency: simulated LLC misses of the three
// sequential minimum cut implementations (Figure 9a).
func BenchmarkFig9SeqCacheEfficiency(b *testing.B) {
	g := gen.ErdosRenyiM(384, 384*16, 1, gen.Config{})
	ksTrials := min(mincut.KargerSteinTrials(g.N, 0.9), 2)
	mcTrials := min(mincut.Trials(g.N, g.M(), 0.9), 16)
	cases := map[string]func(c *cachesim.Cache){
		"SW": func(c *cachesim.Cache) { cachesim.StoerWagnerKernel(c, g) },
		"KS": func(c *cachesim.Cache) { cachesim.KargerSteinKernel(c, g, rng.New(1, 0, 0), ksTrials) },
		"MC": func(c *cachesim.Cache) { cachesim.MCKernel(c, g, rng.New(1, 0, 0), mcTrials) },
	}
	for _, name := range []string{"SW", "KS", "MC"} {
		b.Run(name, func(b *testing.B) {
			var misses float64
			for i := 0; i < b.N; i++ {
				c := cachesim.New(1<<12, 8)
				cases[name](c)
				misses = float64(c.Misses())
			}
			b.ReportMetric(misses, "sim_misses")
		})
	}
}
