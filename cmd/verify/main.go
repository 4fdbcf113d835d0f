// Command verify reproduces the artifact's correctness methodology
// (§A.6.2): ① corner-case graphs with known, deterministic minimum cut
// values; ② cross-checks of the randomized algorithms against the
// deterministic Stoer–Wagner baseline on random inputs; ③ multi-seed
// consistency — with per-run success probability ≥ 0.9 and k independent
// seeds agreeing, the probability that all are wrong is ≤ (1-0.9)^k;
// ④ the approximate cut's bracket audit and ⑤ every connected-components
// kernel against the traversal baseline, both run by internal/oracle.
//
// Exit status 0 means every check passed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/oracle"
	"repro/internal/planner"
)

// falseAlarm is the rate at which a statistical check below fails a
// correct kernel.
const falseAlarm = 1e-3

var failures int

func check(ok bool, format string, args ...any) {
	if ok {
		fmt.Printf("  ok   "+format+"\n", args...)
	} else {
		failures++
		fmt.Printf("  FAIL "+format+"\n", args...)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("verify: ")
	var (
		p     = flag.Int("p", 4, "virtual processors")
		seed  = flag.Uint64("seed", 1, "base PRNG seed")
		seeds = flag.Int("seeds", 5, "independent seeds for consistency checks")
		quick = flag.Bool("quick", false, "smaller random instances")
	)
	flag.Parse()

	fmt.Println("== corner cases with known minimum cuts ==")
	corner := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"cycle(64,w=2)", gen.Cycle(64, 2), 4},
		{"path(32,w=5)", gen.Path(32, 5), 5},
		{"star(24,w=3)", gen.Star(24, 3), 3},
		{"complete(12,w=1)", gen.Complete(12, 1), 11},
		{"twocliques(12,k=3)", gen.TwoCliques(12, 3, 4, 1), 3},
		{"dumbbell(16)", gen.Dumbbell(16, 4, 1), 1},
		{"grid(8x8)", gen.Grid(8, 8, 1), 2},
	}
	for _, c := range corner {
		res, err := core.MinCut(c.g, core.Options{Processors: *p, Seed: *seed, SuccessProb: 0.95})
		if err != nil {
			log.Fatal(err)
		}
		check(res.Value == c.want && c.g.CutValue(res.Side) == res.Value,
			"%-20s cut=%d want=%d certificate=%v", c.name, res.Value, c.want, c.g.CutValue(res.Side) == res.Value)
	}

	fmt.Println("== randomized vs deterministic baseline (Stoer–Wagner) ==")
	n, m := 64, 400
	if *quick {
		n, m = 32, 160
	}
	for s := uint64(0); s < 4; s++ {
		g := gen.ErdosRenyiM(n, m, *seed+s, gen.Config{MaxWeight: 5})
		if !g.IsConnected() {
			continue
		}
		want := mincut.StoerWagner(g).Value
		res, err := core.MinCut(g, core.Options{Processors: *p, Seed: *seed + 100 + s, SuccessProb: 0.95})
		if err != nil {
			log.Fatal(err)
		}
		check(res.Value == want, "ER(n=%d,m=%d,seed=%d): parallel=%d SW=%d", n, m, *seed+s, res.Value, want)
	}

	fmt.Println("== multi-seed consistency (artifact §A.6.2) ==")
	big := gen.WattsStrogatz(n*8, 16, 0.3, *seed, gen.Config{MaxWeight: 3})
	var values []uint64
	for s := 0; s < *seeds; s++ {
		res, err := core.MinCut(big, core.Options{Processors: *p, Seed: *seed + uint64(s)*7919})
		if err != nil {
			log.Fatal(err)
		}
		values = append(values, res.Value)
	}
	allSame := true
	for _, v := range values {
		if v != values[0] {
			allSame = false
		}
	}
	check(allSame, "WS(n=%d): %d independent seeds agree on cut %d (P[all wrong] <= 0.1^%d)",
		big.N, *seeds, values[0], *seeds)

	fmt.Println("== approximate cut inside its O(log n) bracket (oracle) ==")
	ins := oracle.CutInputs(func(g *graph.Graph) uint64 { return mincut.StoerWagner(g).Value })
	for _, c := range corner {
		ins = append(ins, oracle.Input{Name: c.name, G: c.g, Lambda: c.want})
	}
	approxSeeds := 200
	if *quick {
		approxSeeds = 50
	}
	rows, err := oracle.Approx(ins, []int{*p}, approxSeeds)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		check(r.Check(falseAlarm) == nil, "%-20s pipelined=%-5v %d/%d inside the 4·log₂ n bracket (share ≥ %.2f: p-value %.2g)",
			r.Input, r.Pipelined, r.Inside, r.Runs, oracle.ApproxShare, r.PValue())
	}

	fmt.Println("== connected components vs traversal baseline (oracle) ==")
	k := planner.For("cc")
	kernel := oracle.CCKernel{Name: k.Name, Labels: func(g *graph.Graph, p int, seed uint64) ([]int32, error) {
		out, _, err := k.Exec(context.Background(), planner.Shape{P: p}, g.N, g.Edges, planner.RunParams{Seed: seed}.Defaulted(), nil)
		if err != nil {
			return nil, err
		}
		return out.Labels, nil
	}}
	ccRows, err := oracle.CC(kernel, oracle.CCInputs(), []int{*p}, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range ccRows {
		verdict := "equal"
		if r.Mismatch != "" {
			verdict = r.Mismatch
		}
		check(r.Mismatch == "", "%-10s on %-10s %d runs, labels vs BFS: %s", r.Kernel, r.Input, r.Runs, verdict)
	}

	if failures > 0 {
		fmt.Printf("\n%d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}
