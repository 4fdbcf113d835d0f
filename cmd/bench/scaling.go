package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/perfmodel"
	"repro/internal/planner"
	"repro/internal/stats"
)

// medianStats runs fn e.runs times and returns the run whose total time
// is the median (cost counters are deterministic across repetitions; the
// median de-noises the timings, following the paper's methodology).
func medianStats(e *env, fn func(rep int) core.RunStats) core.RunStats {
	all := make([]core.RunStats, e.runs)
	times := make([]float64, e.runs)
	for r := range all {
		all[r] = fn(r)
		times[r] = all[r].Time.Seconds()
	}
	med := stats.Median(times)
	best := 0
	for i, t := range times {
		if absf(t-med) < absf(times[best]-med) {
			best = i
		}
	}
	e.record(all[best])
	return all[best]
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// paperMinCut is §4's exact minimum cut as the paper runs it — every
// trial drawn, no certificate — on a pooled p-processor machine through
// the library's block runner, as core.AllMinCuts runs its body. The
// figures below time it, because core.MinCut proves the min-degree cut
// minimum on their inputs and then draws no trial at all.
func paperMinCut(g *graph.Graph, p int, seed uint64, success float64) (uint64, core.RunStats) {
	par := planner.RunParams{Seed: seed, SuccessProb: success}.Defaulted()
	var cut uint64
	st := onBlocks(p, g, func(c *bsp.Comm, local []graph.Edge) {
		r := mincut.ParallelTrials(c, g.N, local, par.Stream(c), mincut.Options{SuccessProb: par.SuccessProb})
		if c.Rank() == 0 {
			cut = r.Value
		}
	})
	return cut, core.StatsOf(st)
}

// mcStrongScaling runs the Figure 1 / Figure 6 protocol on g: a p-sweep
// of the exact minimum cut, printing time, T_MPI, their ratio, and the
// fitted BSP model's prediction. One reduced row follows: core.MinCut at
// p = 1, which runs the certificate first.
func mcStrongScaling(e *env, g *graph.Graph, success float64) {
	fmt.Println("p\ttime_s\tcomm_s\tcomm_frac\tsupersteps\tvolume\tmodel_s\tcut")
	type row struct {
		p   int
		st  core.RunStats
		cut uint64
	}
	var rows []row
	var samples []perfmodel.Sample
	for _, p := range e.pSweep() {
		var cut uint64
		st := medianStats(e, func(rep int) core.RunStats {
			var st core.RunStats
			cut, st = paperMinCut(g, p, e.seed+uint64(rep), success)
			return st
		})
		rows = append(rows, row{p: p, st: st, cut: cut})
		// On real clusters the per-processor maximum (st.Ops) drives wall
		// time directly. Virtual processors beyond the physical cores
		// timeshare, so the effective compute term is total work over
		// effective cores.
		eff := 1.0
		if cores := runtime.NumCPU(); p > cores {
			eff = float64(p) / float64(cores)
		}
		samples = append(samples, perfmodel.Sample{
			Comp:       float64(st.Ops) * eff,
			Volume:     float64(st.CommVolume),
			Supersteps: float64(st.Supersteps),
			P:          float64(p),
			Time:       st.Time.Seconds(),
		})
	}
	model, err := perfmodel.FitRobust(samples)
	for i, r := range rows {
		pred := "-"
		if err == nil {
			pred = fmt.Sprintf("%.4f", model.Predict(samples[i]))
		}
		fmt.Printf("%d\t%.4f\t%.4f\t%.3f\t%d\t%d\t%s\t%d\n",
			r.p, r.st.Time.Seconds(), r.st.CommTime.Seconds(), r.st.CommFraction,
			r.st.Supersteps, r.st.CommVolume, pred, r.cut)
	}
	if err == nil {
		fmt.Printf("# model fit: T = %.3g·comp + %.3g·vol·log2(p) + %.3g·steps + %.3g  (R²=%.3f)\n",
			model.A, model.B, model.C, model.D, model.R2(samples))
	}
	var red *core.MinCutResult
	st := medianStats(e, func(rep int) core.RunStats {
		res, err := core.MinCut(g, core.Options{Processors: 1, Seed: e.seed + uint64(rep), SuccessProb: success})
		if err != nil {
			log.Fatal(err)
		}
		red = res
		return res.Stats
	})
	fmt.Printf("# reduced (core.MinCut, certificate first): p=1 time_s=%.4f supersteps=%d volume=%d trials=%d cut=%d\n",
		st.Time.Seconds(), st.Supersteps, st.CommVolume, red.Trials, red.Value)
	fmt.Println("# paper shape: near-linear scaling; comm fraction small and slowly growing; model tracks measurements")
}

func runFig1(e *env) {
	n := e.scale(1536, 512)
	g := gen.ErdosRenyiM(n, n*16, e.seed, gen.Config{})
	fmt.Printf("# workload: Erdős–Rényi n=%d d=32 (paper: n=96000 d=32, 144–1008 cores)\n", n)
	mcStrongScaling(e, g, 0.9)
}

func runFig6(e *env) {
	n := e.scale(1024, 384)
	d := e.scale(256, 96)
	g := gen.ErdosRenyiM(n, n*d/2, e.seed, gen.Config{})
	fmt.Printf("# workload: dense random graph n=%d d=%d (paper: R-MAT n=16000 d=4000, 48–1536 cores)\n", n, d)
	mcStrongScaling(e, g, 0.9)
}

func runFig7(e *env) {
	fmt.Println("# paper shape: at fixed n/p, MC time grows ~linearly in n (cost ~n²/p)")
	fmt.Println("## sparse: Watts–Strogatz d=32, vertices per processor fixed")
	perProc := e.scale(256, 96)
	fmt.Println("p\tn\ttime_s\tcomm_frac\tcut")
	for _, p := range e.pSweep() {
		n := perProc * p
		g := gen.WattsStrogatz(n, 32, 0.3, e.seed, gen.Config{})
		var cut uint64
		st := medianStats(e, func(rep int) core.RunStats {
			var st core.RunStats
			cut, st = paperMinCut(g, p, e.seed+uint64(rep), 0)
			return st
		})
		fmt.Printf("%d\t%d\t%.4f\t%.3f\t%d\n", p, n, st.Time.Seconds(), st.CommFraction, cut)
	}
	fmt.Println("## dense: random graph d=64, vertices per processor fixed")
	perProc = e.scale(128, 64)
	fmt.Println("p\tn\ttime_s\tcomm_frac\tcut")
	for _, p := range e.pSweep() {
		n := perProc * p
		g := gen.ErdosRenyiM(n, n*32, e.seed, gen.Config{})
		var cut uint64
		st := medianStats(e, func(rep int) core.RunStats {
			var st core.RunStats
			cut, st = paperMinCut(g, p, e.seed+uint64(rep), 0)
			return st
		})
		fmt.Printf("%d\t%d\t%.4f\t%.3f\t%d\n", p, n, st.Time.Seconds(), st.CommFraction, cut)
	}
}

func runFig5a(e *env) {
	scale := 12
	if e.quick {
		scale = 10
	}
	n := 1 << scale
	d := e.scale(512, 128)
	g := gen.RMAT(scale, n*d/2, e.seed, gen.Config{})
	fmt.Printf("# workload: R-MAT n=%d d=%d (paper: n=256000 d=4096, 36–360 cores)\n", n, d)
	fmt.Println("p\ttime_s\tcomm_s\tcomm_frac\testimate")
	for _, p := range e.pSweep() {
		var est uint64
		st := medianStats(e, func(rep int) core.RunStats {
			res, err := core.ApproxMinCut(g, core.Options{Processors: p, Seed: e.seed + uint64(rep)})
			if err != nil {
				log.Fatal(err)
			}
			est = res.Value
			return res.Stats
		})
		fmt.Printf("%d\t%.4f\t%.4f\t%.3f\t%d\n", p, st.Time.Seconds(), st.CommTime.Seconds(), st.CommFraction, est)
	}
	fmt.Println("# paper shape: AppMC scales on dense graphs; comm ~26% of time at scale")
}

func runFig5b(e *env) {
	scale := 11
	if e.quick {
		scale = 9
	}
	n := 1 << scale
	edgesPerProc := e.scale(1<<18, 1<<15)
	fmt.Printf("# workload: R-MAT n=%d, %d edges per processor (paper: n=16000, 2048000 edges/node)\n", n, edgesPerProc)
	fmt.Println("p\tm\ttime_s\tcomm_frac\testimate")
	base := 0.0
	for _, p := range e.pSweep() {
		m := edgesPerProc * p
		maxM := n * (n - 1) / 2
		if m > maxM {
			fmt.Printf("# skipping p=%d: m=%d exceeds complete graph\n", p, m)
			continue
		}
		g := gen.RMAT(scale, m, e.seed, gen.Config{})
		var est uint64
		st := medianStats(e, func(rep int) core.RunStats {
			res, err := core.ApproxMinCut(g, core.Options{Processors: p, Seed: e.seed + uint64(rep)})
			if err != nil {
				log.Fatal(err)
			}
			est = res.Value
			return res.Stats
		})
		t := st.Time.Seconds()
		if base == 0 {
			base = t
		}
		fmt.Printf("%d\t%d\t%.4f\t%.3f\t%d\n", p, g.M(), t, st.CommFraction, est)
	}
	fmt.Println("# paper shape: time ~flat as edges and processors grow together (8x edges+procs -> ~1.55x time)")
}
