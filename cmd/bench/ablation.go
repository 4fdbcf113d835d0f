package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Ablations for the design choices DESIGN.md calls out: the two-phase
// broadcast, the Eager Step, the sparsification exponent, and the
// weighted sampler.

func runAblBroadcast(e *env) {
	fmt.Println("# design choice: the library's Broadcast (direct at p = 2, else scatter+all-gather for k >= 2p) vs naive direct sends")
	fmt.Println("strategy\tp\twords\tvolume\tsupersteps")
	k := e.scale(1<<16, 1<<13)
	for _, p := range []int{2, 4, 8} {
		if p > e.maxP {
			continue
		}
		payload := make([]uint64, k)
		st, err := bsp.Run(p, func(c *bsp.Comm) {
			var in []uint64
			if c.Rank() == 0 {
				in = payload
			}
			c.Broadcast(0, in)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("library\t%d\t%d\t%d\t%d\n", p, k, st.CommVolume, st.Supersteps)
		// Naive: root sends the full payload to everyone, itself included,
		// as the library's ledger counts it.
		st, err = bsp.Run(p, func(c *bsp.Comm) {
			if c.Rank() == 0 {
				for dst := 0; dst < p; dst++ {
					c.Send(dst, payload)
				}
			}
			c.Sync()
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("direct\t%d\t%d\t%d\t%d\n", p, k, st.CommVolume, st.Supersteps)
	}
	fmt.Println("# expected: library at p = 2 is the direct send plus a 1-word length header (1 superstep, volume 2k+2);")
	fmt.Println("# at p >= 3 it is two-phase (2 supersteps, volume 2(p-1)k/p + p-1: no chunk goes to the root or to its own holder); direct volume p·k at the root")
}

func runAblEager(e *env) {
	fmt.Println("# design choice: Eager Step (contract to ⌈√m⌉+1 before recursing) vs recursive contraction on the full graph")
	n := e.scale(768, 384)
	d := 16
	g := gen.ErdosRenyiM(n, n*d/2, e.seed, gen.Config{})
	st := rng.New(e.seed, 0, 0)

	fmt.Println("variant\ttrials\ttotal_s\tper_trial_ms\tcut")
	measure := func(name string, trials int, run func() uint64) {
		times := make([]float64, e.runs)
		var cut uint64
		for r := range times {
			start := time.Now()
			cut = run()
			times[r] = time.Since(start).Seconds()
		}
		med := stats.Median(times)
		fmt.Printf("%s\t%d\t%.3f\t%.2f\t%d\n", name, trials, med, 1000*med/float64(trials), cut)
	}
	mcTrials := mincut.Trials(n, g.M(), 0.9)
	measure("eager+recursive", mcTrials, func() uint64 {
		return mincut.Sequential(g, st, 0.9).Value
	})
	ksTrials := mincut.KargerSteinTrials(n, 0.9)
	measure("recursive-only", ksTrials, func() uint64 {
		return mincut.KargerStein(g, st, 0.9).Value
	})
	fmt.Println("# expected: eager trials are far cheaper (work ~m + √m²·log) though more numerous;")
	fmt.Println("# on sparse graphs the eager variant wins the total-work comparison as n grows")
}

func runAblEpsilon(e *env) {
	fmt.Println("# design choice: sparsification exponent ε (CC sample size s = n^(1+ε/2))")
	n := e.scale(100_000, 20_000)
	g := gen.BarabasiAlbert(n, 16, e.seed, gen.Config{})
	const p = 4
	fmt.Println("epsilon\titerations\tvolume\ttime_s")
	for _, eps := range []float64{0.25, 0.5, 0.75, 1.0} {
		var iters int
		var vol uint64
		times := make([]float64, e.runs)
		for r := range times {
			bst := onBlocks(p, g, func(c *bsp.Comm, local []graph.Edge) {
				res := cc.Parallel(c, g.N, local, rng.New(e.seed+uint64(r), uint32(c.Rank()), 0), cc.Options{Epsilon: eps})
				if c.Rank() == 0 {
					iters = res.Iterations
				}
			})
			times[r] = bst.Total().Seconds()
			vol = bst.CommVolume
		}
		fmt.Printf("%.2f\t%d\t%d\t%.4f\n", eps, iters, vol, stats.Median(times))
	}
	fmt.Println("# expected: larger ε -> bigger samples -> fewer iterations but more volume per round;")
	fmt.Println("# ε=0.5 balances the two (the library default)")
}

func runAblSampler(e *env) {
	fmt.Println("# design choice: weighted edge sampler — cumulative weights behind a bucket index vs O(1) alias method")
	m := e.scale(1<<20, 1<<17)
	s := rng.New(e.seed, 0, 0)
	weights := make([]uint64, m)
	for i := range weights {
		weights[i] = 1 + s.Uint64n(100)
	}
	draws := m / 2
	fmt.Println("sampler\tbuild_ms\tdraw_ms\ttotal_ms")
	{
		times := make([]float64, e.runs)
		builds := make([]float64, e.runs)
		for r := range times {
			start := time.Now()
			ps := rng.NewPrefixSampler(weights)
			builds[r] = time.Since(start).Seconds() * 1000
			start = time.Now()
			for k := 0; k < draws; k++ {
				_ = ps.Sample(s)
			}
			times[r] = time.Since(start).Seconds() * 1000
		}
		fmt.Printf("prefix\t%.1f\t%.1f\t%.1f\n", stats.Median(builds), stats.Median(times), stats.Median(builds)+stats.Median(times))
	}
	{
		times := make([]float64, e.runs)
		builds := make([]float64, e.runs)
		for r := range times {
			start := time.Now()
			as := rng.NewAliasSampler(weights)
			builds[r] = time.Since(start).Seconds() * 1000
			start = time.Now()
			for k := 0; k < draws; k++ {
				_ = as.Sample(s)
			}
			times[r] = time.Since(start).Seconds() * 1000
		}
		fmt.Printf("alias\t%.1f\t%.1f\t%.1f\n", stats.Median(builds), stats.Median(times), stats.Median(builds)+stats.Median(times))
	}
	fmt.Println("# both draw in expected O(1), but an alias draw costs two PRNG values and a prefix draw")
	fmt.Println("# one plus a short sequential scan from its bucket — measured, prefix wins.")
	fmt.Println("# The library uses alias only for the root's p-way distribution step (p entries, cost")
	fmt.Println("# negligible) and the prefix sampler for the per-slice edge draws")
}

func runAblNetwork(e *env) {
	fmt.Println("# design payoff: communication volume translated to time on emulated interconnects")
	fmt.Println("# (virtual clock: per-superstep cost = h·WordTime + SyncLatency, evaluated on one run's")
	fmt.Println("# ledger per kernel; computation time real)")
	n := e.scale(50_000, 20_000)
	g := gen.BarabasiAlbert(n, 16, e.seed, gen.Config{})
	const p = 4
	nets := []struct {
		name string
		cm   bsp.CostModel
	}{
		{"shared-mem", bsp.CostModel{}},
		{"fast-net", bsp.CostModel{WordTime: 4 * time.Nanosecond, SyncLatency: 10 * time.Microsecond}},
		{"slow-net", bsp.CostModel{WordTime: 40 * time.Nanosecond, SyncLatency: 100 * time.Microsecond}},
	}
	impls := []struct {
		name string
		st   *bsp.Stats
	}{
		{"CC", onBlocks(p, g, func(c *bsp.Comm, local []graph.Edge) {
			cc.Parallel(c, g.N, local, rng.New(e.seed, uint32(c.Rank()), 0), cc.Options{})
		})},
		{"PBGL", onBlocks(p, g, func(c *bsp.Comm, local []graph.Edge) {
			cc.LabelPropagation(c, g.N, local)
		})},
	}
	fmt.Println("impl\tnetwork\tsim_total_s\tsim_comm_s\tsim_comm_frac")
	for _, net := range nets {
		for _, im := range impls {
			comm := im.st.SimComm(net.cm).Seconds()
			total := im.st.MaxAppTime.Seconds() + comm // > 0: the kernels did real work
			fmt.Printf("%s\t%s\t%.4f\t%.4f\t%.3f\n", im.name, net.name, total, comm, comm/total)
		}
	}
	fmt.Println("# expected: as the interconnect slows, the label-propagation baseline's per-round")
	fmt.Println("# n-word all-reduces dominate while CC's O(1)-superstep design stays flat")
}

func runAblFlow(e *env) {
	fmt.Println("# related-work baseline (§6): a flow-based global min cut needs n-1 max s-t flow")
	fmt.Println("# computations — an Ω(mn) work bound — where the paper's approximate cut does")
	fmt.Println("# O(m·log³n + n^(1+ε)) work. The exact MC is included for reference.")
	sizes := []int{128, 256, 512}
	if e.quick {
		sizes = []int{96, 192, 384}
	}
	fmt.Println("impl\tn\tm\ttime_s\tcut")
	for _, n := range sizes {
		g := gen.ErdosRenyiM(n, n*8, e.seed, gen.Config{MaxWeight: 4})
		if !g.IsConnected() {
			continue
		}
		start := time.Now()
		fv, _, _ := flow.GlobalMinCut(g)
		tFlow := time.Since(start).Seconds()
		fmt.Printf("maxflow\t%d\t%d\t%.4f\t%d\n", n, g.M(), tFlow, fv)

		res, err := core.ApproxMinCut(g, core.Options{Processors: 1, Seed: e.seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("AppMC\t%d\t%d\t%.4f\t%d (O(logn)-approx)\n", n, g.M(), res.Stats.Time.Seconds(), res.Value)

		st := rng.New(e.seed, 0, 0)
		start = time.Now()
		mv := mincut.Sequential(g, st, 0.95).Value
		fmt.Printf("MC\t%d\t%d\t%.4f\t%d\n", n, g.M(), time.Since(start).Seconds(), mv)
		if fv != mv {
			fmt.Printf("# WARNING: disagreement maxflow=%d MC=%d\n", fv, mv)
		}
	}
	fmt.Println("# expected: the flow baseline's time grows ~quadratically at fixed degree (n-1 flow")
	fmt.Println("# computations) while AppMC's near-linear work stays nearly flat per edge")
}
