package mincut

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// freshArena is an arena no pool has seen: every buffer it hands out is
// a new allocation, so its results are the reference for recycled ones.
func freshArena() *ksArena { return &ksArena{uf: &graph.UnionFind{}} }

// TestArenaReuseBitIdentical checks the arena's core contract: a
// recursion running on dirty, recycled buffers must produce bit-identical
// results to one running on fresh allocations, because every arena slice
// is fully written before it is read. The first pass warms (and dirties)
// the pooled arena; the second pass replays the same RNG streams through
// the warm pool and must reproduce every value and side exactly.
func TestArenaReuseBitIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyiM(60, 400, 5, gen.Config{MaxWeight: 7}),
		gen.ErdosRenyiM(120, 900, 6, gen.Config{MaxWeight: 3}),
		gen.RMAT(7, 700, 8, gen.Config{MaxWeight: 9}),
	}
	type outcome struct {
		val  uint64
		side []bool
	}
	run := func() []outcome {
		var out []outcome
		for gi, g := range graphs {
			st := rng.New(97, uint32(gi), 0)
			r := KargerStein(g, st, 0.9)
			out = append(out, outcome{r.Value, append([]bool(nil), r.Side...)})
			st2 := rng.New(131, uint32(gi), 0)
			r2 := Sequential(g, st2, 0.9)
			out = append(out, outcome{r2.Value, append([]bool(nil), r2.Side...)})
		}
		return out
	}
	first := run()
	second := run() // pools are warm: every arena buffer is recycled and dirty
	for i := range first {
		if first[i].val != second[i].val {
			t.Fatalf("outcome %d: value %d on fresh buffers, %d on recycled", i, first[i].val, second[i].val)
		}
		for v := range first[i].side {
			if first[i].side[v] != second[i].side[v] {
				t.Fatalf("outcome %d: side differs at vertex %d between fresh and recycled buffers", i, v)
			}
		}
	}
}

// TestArenaContractToMatchesStandalone pins the contraction on a dirty,
// recycled arena against the same contraction on a fresh, never-used
// one: same stream, same matrix, identical contracted matrix and mapping.
func TestArenaContractToMatchesStandalone(t *testing.T) {
	g := gen.ErdosRenyiM(40, 300, 17, gen.Config{MaxWeight: 5})
	m := graph.MatrixFromGraph(g)
	for trial := 0; trial < 8; trial++ {
		st1 := rng.New(7, uint32(trial), 0)
		st2 := rng.New(7, uint32(trial), 0)
		wantM, wantMap := freshArena().contractTo(m, 12, st1)

		a := getKSArena()
		// Dirty the arena first so reuse is actually exercised.
		junkW := a.getWords(m.N * m.N)
		for i := range junkW {
			junkW[i] = ^uint64(0)
		}
		a.putWords(junkW)
		junkI := a.getInts(m.N)
		for i := range junkI {
			junkI[i] = -7
		}
		a.putInts(junkI)
		gotM, gotMap := a.contractTo(m, 12, st2)
		if gotM.N != wantM.N {
			t.Fatalf("trial %d: contracted to %d vertices, standalone %d", trial, gotM.N, wantM.N)
		}
		for i := range wantM.W {
			if gotM.W[i] != wantM.W[i] {
				t.Fatalf("trial %d: matrix cell %d = %d, standalone %d", trial, i, gotM.W[i], wantM.W[i])
			}
		}
		for i := range wantMap {
			if gotMap[i] != wantMap[i] {
				t.Fatalf("trial %d: mapping[%d] = %d, standalone %d", trial, i, gotMap[i], wantMap[i])
			}
		}
		a.putWords(gotM.W)
		a.putInts(gotMap)
		putKSArena(a)
	}
}
