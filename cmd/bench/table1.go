package main

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/perfmodel"
)

// runTable1 validates the asymptotic bounds of Table 1 empirically: it
// measures the MC algorithm's supersteps, computation (operation
// counter), and communication volume over an (n, p) grid and prints the
// measured growth ratios next to the ratios the bounds predict.
func runTable1(e *env) {
	d := 32
	nBase := e.scale(512, 256)
	pBase := 2
	if pBase*2 > e.maxP {
		fmt.Println("# needs -maxp >= 4; skipping p-growth column")
	}

	type cell struct {
		steps  int
		comp   uint64
		volume uint64
	}
	measure := func(n, p int) cell {
		g := gen.ErdosRenyiM(n, n*d/2, e.seed, gen.Config{})
		_, st := paperMinCut(g, p, e.seed, 0)
		return cell{steps: st.Supersteps, comp: st.Ops, volume: st.CommVolume}
	}

	fmt.Println("n\tp\tsupersteps\tcomputation\tvolume")
	grid := map[[2]int]cell{}
	for _, n := range []int{nBase, 2 * nBase} {
		for _, p := range []int{pBase, 2 * pBase} {
			if p > e.maxP {
				continue
			}
			c := measure(n, p)
			grid[[2]int{n, p}] = c
			fmt.Printf("%d\t%d\t%d\t%d\t%d\n", n, p, c.steps, c.comp, c.volume)
		}
	}

	ratio := func(a, b uint64) float64 { return float64(a) / float64(b) }
	nf, pf := float64(nBase), float64(pBase)
	mf := nf * float64(d) / 2

	base, okB := grid[[2]int{nBase, pBase}]
	n2, okN := grid[[2]int{2 * nBase, pBase}]
	p2, okP := grid[[2]int{nBase, 2 * pBase}]
	if okB && okN {
		fmt.Println("## growth when n doubles (p fixed)")
		fmt.Printf("computation: measured %.2fx, bound (n²log³n/p) predicts %.2fx\n",
			ratio(n2.comp, base.comp),
			perfmodel.MCComputation(2*nf, pf)/perfmodel.MCComputation(nf, pf))
		fmt.Printf("volume:      measured %.2fx, bound (n²log²n·logp/p) predicts %.2fx\n",
			ratio(n2.volume, base.volume),
			perfmodel.MCVolume(2*nf, pf)/perfmodel.MCVolume(nf, pf))
	}
	if okB && okP {
		fmt.Println("## growth when p doubles (n fixed)")
		fmt.Printf("computation: measured %.2fx, bound predicts %.2fx (perfect halving)\n",
			ratio(p2.comp, base.comp),
			perfmodel.MCComputation(nf, 2*pf)/perfmodel.MCComputation(nf, pf))
		fmt.Printf("supersteps:  measured %.2fx, bound (log(pm/n²)) predicts %.2fx\n",
			ratio(uint64(p2.steps), uint64(base.steps)),
			perfmodel.MCSupersteps(nf, mf, 2*pf)/perfmodel.MCSupersteps(nf, mf, pf))
	}
	fmt.Println("## Table 1 bound comparison at n=10^4, p=64 (up to constants)")
	n10, p64 := 1e4, 64.0
	m10 := n10 * 32
	fmt.Printf("supersteps:  this paper %.1f  vs previous BSP %.1f\n",
		perfmodel.MCSupersteps(n10, m10, p64), perfmodel.PrevBSPSupersteps(n10, p64))
	fmt.Printf("computation: this paper %.3g vs previous BSP %.3g\n",
		perfmodel.MCComputation(n10, p64), perfmodel.PrevBSPComputation(n10, p64))
	fmt.Printf("volume:      this paper %.3g vs previous BSP %.3g\n",
		perfmodel.MCVolume(n10, p64), perfmodel.PrevBSPVolume(n10, p64))
	fmt.Println("# paper shape: this paper improves the previous BSP bounds by ~log p in computation and volume,")
	fmt.Println("# and exponentially in supersteps (O(log(pm/n²)) vs O(logn·log²p))")
}
