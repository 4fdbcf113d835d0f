package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planner"
	"repro/internal/rng"
	"repro/internal/stats"
)

// onBlocks runs body through the library's own block runner — a pooled
// p-processor machine, rank r reading block r of g.Edges in place — so
// nothing timed against the library's kernels pays for a scatter or a
// machine build they do not pay for.
func onBlocks(p int, g *graph.Graph, body func(c *bsp.Comm, local []graph.Edge)) *bsp.Stats {
	st, err := planner.RunBlocks(context.Background(), planner.Shape{P: p}, g.Edges, body)
	if err != nil {
		log.Fatal(err)
	}
	return st
}

// ccStrongScaling runs the Figure 3 protocol: our CC, the PBGL-style
// label-propagation baseline, and the Galois-style shared-memory baseline
// across a processor sweep, plus the sequential BGL-style baseline as a
// horizontal line.
func ccStrongScaling(e *env, g *graph.Graph) {
	// Sequential baseline lines: the BGL-style traversal and the
	// sampling algorithm run on one processor without the BSP runtime.
	times := make([]float64, e.runs)
	for i := range times {
		start := time.Now()
		cc.Sequential(g)
		times[i] = time.Since(start).Seconds()
	}
	fmt.Printf("BGL(sequential)\t-\t%.4f\n", stats.Median(times))
	for i := range times {
		start := time.Now()
		cc.SequentialSampling(g, rng.New(e.seed+uint64(i), 0, 0), 0.5)
		times[i] = time.Since(start).Seconds()
	}
	fmt.Printf("CC(sequential)\t-\t%.4f\n", stats.Median(times))

	fmt.Println("impl\tp\ttime_s\tcomm_frac")
	for _, p := range e.pSweep() {
		// Our algorithm.
		st := medianStats(e, func(rep int) core.RunStats {
			res, err := core.ConnectedComponents(g, core.Options{Processors: p, Seed: e.seed + uint64(rep)})
			if err != nil {
				log.Fatal(err)
			}
			_ = res
			return res.Stats
		})
		fmt.Printf("CC\t%d\t%.4f\t%.3f\n", p, st.Time.Seconds(), st.CommFraction)

		// PBGL-style label propagation on the BSP machine.
		lpTimes := make([]float64, e.runs)
		for r := range lpTimes {
			lpTimes[r] = onBlocks(p, g, func(c *bsp.Comm, local []graph.Edge) {
				cc.LabelPropagation(c, g.N, local)
			}).Total().Seconds()
		}
		fmt.Printf("PBGL\t%d\t%.4f\t-\n", p, stats.Median(lpTimes))

		// Galois-style shared-memory union-find.
		smTimes := make([]float64, e.runs)
		for r := range smTimes {
			start := time.Now()
			cc.SharedMemory(g, p)
			smTimes[r] = time.Since(start).Seconds()
		}
		fmt.Printf("Galois\t%d\t%.4f\t-\n", p, stats.Median(smTimes))
	}
}

func runFig3a(e *env) {
	n := e.scale(200_000, 50_000)
	g := gen.BarabasiAlbert(n, 16, e.seed, gen.Config{})
	fmt.Printf("# workload: Barabási–Albert n=%d d≈32, m=%d (paper: n=1M d=32)\n", n, g.M())
	ccStrongScaling(e, g)
	fmt.Println("# paper shape: CC faster than PBGL-style everywhere; limited scaling on sparse inputs; sequential CC ≈ BGL")
}

func runFig3b(e *env) {
	scale := 14
	if e.quick {
		scale = 12
	}
	n := 1 << scale
	d := e.scale(256, 64)
	g := gen.RMAT(scale, n*d/2, e.seed, gen.Config{})
	fmt.Printf("# workload: R-MAT n=%d d=%d, m=%d (paper: n=128000 d=2000)\n", n, d, g.M())
	ccStrongScaling(e, g)
	fmt.Println("# paper shape: dense graphs give CC enough parallelism to scale; CC consistently fastest")
}

func runFig4d(e *env) {
	scale := 14
	if e.quick {
		scale = 12
	}
	n := 1 << scale
	d := e.scale(256, 64)
	g := gen.RMAT(scale, n*d/2, e.seed, gen.Config{})
	fmt.Printf("# workload: R-MAT n=%d d=%d (paper: n=128000 d=2048)\n", n, d)
	fmt.Println("p\ttime_s\tcomm_s\tcomm_frac\tsupersteps")
	for _, p := range e.pSweep() {
		st := medianStats(e, func(rep int) core.RunStats {
			res, err := core.ConnectedComponents(g, core.Options{Processors: p, Seed: e.seed + uint64(rep)})
			if err != nil {
				log.Fatal(err)
			}
			return res.Stats
		})
		fmt.Printf("%d\t%.4f\t%.4f\t%.3f\t%d\n", p, st.Time.Seconds(), st.CommTime.Seconds(), st.CommFraction, st.Supersteps)
	}
	fmt.Println("# paper shape: comm fraction grows slowly with p (2.8% at 36 cores -> 9.6% at 72); supersteps O(1)")
}

// ccSuperstepNote prints the number of supersteps of one CC run —
// evidence for the O(1) claim.
func ccSuperstepNote(g *graph.Graph, p int, seed uint64) {
	res, err := core.ConnectedComponents(g, core.Options{Processors: p, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# supersteps at p=%d: %d\n", p, res.Stats.Supersteps)
}

// rngFor is a tiny helper for direct BSP experiments.
func rngFor(c *bsp.Comm, seed uint64) *rng.Stream {
	return rng.New(seed, uint32(c.Rank()), 0)
}
