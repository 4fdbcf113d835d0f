package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planner"
	"repro/internal/service"
)

// TestLibraryEqualsDaemon: for each algorithm's kernel, the
// library facade and the serving path run the same computation — the
// query resolved by the engine (validation, defaults) and executed by
// service.Run answers exactly what core returns for the same options,
// down to the BSP ledger's supersteps and words. Seed 0 is the unset
// seed on both sides, so the zero Options and an empty QueryRequest must
// also normalize to the same RunParams: the two sets of defaults cannot
// drift apart.
func TestLibraryEqualsDaemon(t *testing.T) {
	e := service.NewEngine(service.Config{Workers: 1})
	defer e.Close()
	graphs := map[string]*graph.Graph{
		"ws":      gen.WattsStrogatz(96, 6, 0.2, 7, gen.Config{}),
		"er":      gen.ErdosRenyiM(120, 480, 7, gen.Config{}),
		"cliques": gen.TwoCliques(10, 2, 5, 1),
		"cycle":   gen.Cycle(40, 1),
	}
	for name, g := range graphs {
		if _, err := e.Registry().Put(name, g); err != nil {
			t.Fatal(err)
		}
	}
	type answer struct {
		Value         uint64
		Side          []bool
		Labels        []int32
		Count, Trials int
		Iterations    int
		Supersteps    int
		CommVolume    uint64
	}
	library := map[string]func(g *graph.Graph, o Options) answer{
		"mincut": func(g *graph.Graph, o Options) answer {
			r, err := MinCut(g, o)
			if err != nil {
				t.Fatal(err)
			}
			return answer{Value: r.Value, Side: r.Side, Trials: r.Trials, Supersteps: r.Stats.Supersteps, CommVolume: r.Stats.CommVolume}
		},
		"cc": func(g *graph.Graph, o Options) answer {
			r, err := ConnectedComponents(g, o)
			if err != nil {
				t.Fatal(err)
			}
			return answer{Labels: r.Labels, Count: r.Count, Supersteps: r.Stats.Supersteps, CommVolume: r.Stats.CommVolume}
		},
		"approxcut": func(g *graph.Graph, o Options) answer {
			r, err := ApproxMinCut(g, o)
			if err != nil {
				t.Fatal(err)
			}
			return answer{Value: r.Value, Iterations: r.Iterations, Supersteps: r.Stats.Supersteps, CommVolume: r.Stats.CommVolume}
		},
	}
	// daemon projects a query result onto the fields core exposes.
	daemon := func(r *service.QueryResult) answer {
		a := answer{Supersteps: r.Kernel.Supersteps, CommVolume: r.Kernel.CommVolume}
		switch r.Algorithm {
		case "mincut":
			a.Value, a.Side, a.Trials = r.Value, r.Side, r.Trials
		case "cc":
			a.Labels, a.Count = r.Labels, r.Components
		case "approxcut":
			a.Value, a.Iterations = r.Value, r.Iterations
		}
		return a
	}
	for alg, run := range library {
		rs, err := e.Resolve(&service.QueryRequest{Graph: "ws", Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if want := (Options{}).params(); rs.Params != want {
			t.Errorf("%s: an empty query normalizes to %+v, the zero Options to %+v", alg, rs.Params, want)
		}
		for name, g := range graphs {
			for _, p := range []int{1, 2, 4} {
				for _, seed := range []uint64{0, 3, 11} {
					t.Run(fmt.Sprintf("%s/%s/p=%d/seed=%d", alg, name, p, seed), func(t *testing.T) {
						rs, err := e.Resolve(&service.QueryRequest{Graph: name, Algorithm: alg, Seed: seed})
						if err != nil {
							t.Fatal(err)
						}
						res, err := service.Run(context.Background(), rs.Graph, alg, rs.Params, planner.Shape{P: p})
						if err != nil {
							t.Fatal(err)
						}
						lib := run(g, Options{Processors: p, Seed: seed})
						if got := daemon(res); !reflect.DeepEqual(got, lib) {
							t.Errorf("daemon %+v\nlibrary %+v", got, lib)
						}
					})
				}
			}
		}
	}
}
