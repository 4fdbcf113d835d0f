package main

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/stats"
)

// benchSalt is benchmark/'s graphSeedSalt: its workloads generate graph
// seed s^benchSalt (+ the graph's variant index in the HTTP mixes).
const benchSalt = 0x6a09e667f3bcc908

// runCertify is the census behind core.MinCut's certificate: for every
// exact-minimum-cut input the repo builds, the min-degree cut λ̂, the
// minimum cut λ (Stoer–Wagner up to n = 1 536), whether the sparse
// Nagamochi–Ibaraki certificate proves λ = λ̂, the passes it took and its
// median time. A disconnected input never reaches the certificate (its
// cut is 0).
func runCertify(e *env) {
	type input struct {
		name string
		g    *graph.Graph
	}
	var ins []input
	for s := uint64(1); s <= 10; s++ {
		ins = append(ins, input{fmt.Sprintf("mincut_batch ws256 k12 seed %d", s),
			gen.WattsStrogatz(256, 12, 0.3, s^benchSalt, gen.Config{})})
	}
	for g, n := range []int{256, 512} {
		for v := 0; v < 2; v++ {
			ins = append(ins, input{fmt.Sprintf("serve_mix ws%d k8 variant %d", n, v),
				gen.WattsStrogatz(n, 8, 0.3, 1^benchSalt+uint64(2*g+v), gen.Config{})})
		}
	}
	ins = append(ins,
		input{"fleet_tcp ws256 k8", gen.WattsStrogatz(256, 8, 0.3, 1^benchSalt, gen.Config{})},
		input{"fig1 er1536 d32", gen.ErdosRenyiM(1536, 1536*16, 1, gen.Config{})},
		input{"fig6 er1024 d256", gen.ErdosRenyiM(1024, 1024*128, 1, gen.Config{})},
		input{"serve_mix rmat1024 d16", gen.RMAT(10, 1024*8, 1^benchSalt+6, gen.Config{})},
		input{"serve_mix rmat4096 d16", gen.RMAT(12, 4096*8, 1^benchSalt+12, gen.Config{})},
		input{"calibration ws128 k6", gen.WattsStrogatz(128, 6, 0.2, 7, gen.Config{})},
		input{"calibration ws256 k6", gen.WattsStrogatz(256, 6, 0.2, 7, gen.Config{})},
		input{"calibration er192 m768", gen.ErdosRenyiM(192, 768, 7, gen.Config{})},
		input{"calibration er384 m1536", gen.ErdosRenyiM(384, 1536, 7, gen.Config{})},
		input{"planted ws128+ws128 k12 cross 3", gen.PlantedCut(128, 12, 3, 1)},
	)
	fmt.Println("input\tn\tm\tλ̂\tλ\tcertified\tpasses\tcert_us")
	for _, in := range ins {
		g := in.g
		lambda := "-"
		if g.N <= 1536 {
			lambda = fmt.Sprint(mincut.StoerWagner(g).Value)
		}
		if !g.IsConnected() {
			fmt.Printf("%s\t%d\t%d\t-\t%s\tdisconnected\t-\t-\n", in.name, g.N, g.M(), lambda)
			continue
		}
		_, bound := g.MinDegreeVertex()
		var ok bool
		var passes int
		times := make([]float64, max(e.runs, 5))
		for i := range times {
			start := time.Now()
			ok, passes = mincut.Certify(g, bound)
			times[i] = time.Since(start).Seconds() * 1e6
		}
		fmt.Printf("%s\t%d\t%d\t%d\t%s\t%v\t%d\t%.0f\n", in.name, g.N, g.M(), bound, lambda, ok, passes, stats.Median(times))
	}
	fmt.Println("# a certified input's min-degree cut is its minimum cut: core.MinCut returns it with Trials 0")
}
