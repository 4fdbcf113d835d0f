package mincut

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// bruteForce is the test oracle for exactCut: it enumerates all
// 2^(n-1)-1 bipartitions (vertex 0 fixed to one side) in Gray-code
// order, so each step flips one vertex and updates the cut value in
// O(n). n must be at least 2 and tiny.
func bruteForce(m *graph.Matrix) (uint64, []bool) {
	n := m.N
	side := make([]bool, n)
	bestSide := make([]bool, n)
	bestVal := uint64(math.MaxUint64)
	var cur int64
	for g := uint32(1); g < uint32(1)<<(n-1); g++ {
		// Gray codes of consecutive indices differ in exactly the lowest
		// set bit of g; bit b toggles vertex b+1 (vertex 0 never moves).
		v := bits.TrailingZeros32(g) + 1
		row := m.W[v*n : (v+1)*n]
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			if side[u] != side[v] {
				cur -= int64(row[u]) // edge leaves the cut
			} else {
				cur += int64(row[u]) // edge enters the cut
			}
		}
		side[v] = !side[v]
		if uint64(cur) < bestVal {
			bestVal = uint64(cur)
			copy(bestSide, side)
		}
	}
	return bestVal, bestSide
}

// matrixCut is the weight crossing side in the dense matrix.
func matrixCut(m *graph.Matrix, side []bool) uint64 {
	var cut uint64
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if side[i] != side[j] {
				cut += m.W[i*m.N+j]
			}
		}
	}
	return cut
}

// checkExactCut runs exactCut on a dirtied arena and verifies the value
// against want, the side against the value, and that m is untouched.
func checkExactCut(t *testing.T, m *graph.Matrix, want uint64) {
	t.Helper()
	a := getKSArena()
	defer putKSArena(a)
	junk := a.getWords(m.N * m.N)
	for i := range junk {
		junk[i] = ^uint64(0)
	}
	a.putWords(junk)
	before := append([]uint64(nil), m.W...)
	val, side := a.exactCut(m)
	defer a.putBools(side)
	if val != want {
		t.Fatalf("n=%d: exactCut = %d, oracle %d (matrix %v)", m.N, val, want, m.W)
	}
	in := 0
	for _, s := range side {
		if s {
			in++
		}
	}
	if in == 0 || in == m.N {
		t.Fatalf("n=%d: side is not a proper bipartition: %v", m.N, side)
	}
	if got := matrixCut(m, side); got != val {
		t.Fatalf("n=%d: side cuts %d, reported %d", m.N, got, val)
	}
	for i := range before {
		if m.W[i] != before[i] {
			t.Fatalf("n=%d: exactCut modified its input at cell %d", m.N, i)
		}
	}
}

// TestExactCutMatchesBruteForce is the differential test of the base-
// case solver: 2 400 random weighted matrices, n = 2…9, a third of them
// sparse enough to be disconnected or to carry all-zero rows.
func TestExactCutMatchesBruteForce(t *testing.T) {
	st := rng.New(77, 0, 0)
	zeroRows, disconnected := 0, 0
	for iter := 0; iter < 2400; iter++ {
		n := 2 + iter%8
		m := graph.NewMatrix(n)
		density := []int{1, 3, 6}[iter/8%3] // edge present with probability density/6
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if st.Intn(6) < density {
					w := 1 + st.Uint64n(9)
					m.W[i*n+j], m.W[j*n+i] = w, w
				}
			}
		}
		for i := 0; i < n; i++ {
			if m.WeightedDegree(int32(i)) == 0 {
				zeroRows++
				break
			}
		}
		want, _ := bruteForce(m)
		if want == 0 {
			disconnected++
		}
		checkExactCut(t, m, want)
	}
	if zeroRows == 0 || disconnected == 0 {
		t.Fatalf("generator never produced a zero-weight row (%d) or a disconnected matrix (%d)", zeroRows, disconnected)
	}
}

// TestExactCutMatchesStoerWagnerAtCutoff checks the solver at the size
// recursive contraction hands it — too large for the enumeration oracle
// — against the graph-level StoerWagner.
func TestExactCutMatchesStoerWagnerAtCutoff(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		n := BaseCaseSize
		if seed%4 == 0 {
			n = BaseCaseSize - int(seed%7)
		}
		g := gen.ErdosRenyiM(n, 2*n+int(seed%5)*n, seed, gen.Config{MaxWeight: 9})
		checkExactCut(t, graph.MatrixFromGraph(g), StoerWagner(g).Value)
	}
}

func TestBruteForceTriangle(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 3)
	val, side := bruteForce(graph.MatrixFromGraph(g))
	if val != 5 { // isolate vertex 2: 2+3
		t.Errorf("triangle min cut = %d, want 5", val)
	}
	if side[2] == side[0] || side[0] != side[1] {
		t.Errorf("partition should isolate vertex 2: %v", side)
	}
	if g.CutValue(side) != val {
		t.Errorf("side inconsistent: cut %d vs val %d", g.CutValue(side), val)
	}
}

func TestBruteForceMatchesExhaustiveRandom(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := gen.ErdosRenyiM(6, 10, seed, gen.Config{MaxWeight: 8})
		if !g.IsConnected() {
			return true
		}
		val, side := bruteForce(graph.MatrixFromGraph(g))
		return g.CutValue(side) == val && StoerWagner(g).Value == val
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestStoerWagnerKnownCuts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"cycle", gen.Cycle(12, 3), 6},
		{"path", gen.Path(9, 4), 4},
		{"star", gen.Star(7, 2), 2},
		{"complete", gen.Complete(8, 1), 7},
		{"twocliques", gen.TwoCliques(6, 2, 5, 1), 2},
		{"dumbbell", gen.Dumbbell(6, 4, 1), 1},
		{"grid", gen.Grid(4, 5, 1), 2},
	}
	for _, c := range cases {
		got := StoerWagner(c.g)
		if got.Value != c.want {
			t.Errorf("%s: SW = %d, want %d", c.name, got.Value, c.want)
		}
		if !got.Check(c.g) {
			t.Errorf("%s: SW returned inconsistent partition", c.name)
		}
	}
}

func TestStoerWagnerClassicExample(t *testing.T) {
	// The example graph from the Stoer–Wagner paper (8 vertices,
	// min cut 4).
	g := graph.New(8)
	type e struct {
		u, v int32
		w    uint64
	}
	for _, x := range []e{
		{0, 1, 2}, {0, 4, 3}, {1, 2, 3}, {1, 4, 2}, {1, 5, 2},
		{2, 3, 4}, {2, 6, 2}, {3, 6, 2}, {3, 7, 2}, {4, 5, 3},
		{5, 6, 1}, {6, 7, 3},
	} {
		g.AddEdge(x.u, x.v, x.w)
	}
	got := StoerWagner(g)
	if got.Value != 4 {
		t.Errorf("classic example: SW = %d, want 4", got.Value)
	}
	if !got.Check(g) {
		t.Error("inconsistent partition")
	}
}

func TestContractToPreservesWeightStructure(t *testing.T) {
	g := gen.ErdosRenyiM(20, 80, 3, gen.Config{MaxWeight: 6})
	m := graph.MatrixFromGraph(g)
	st := rng.New(7, 0, 0)
	cm, mapping := freshArena().contractTo(m, 8, st)
	if cm.N != 8 {
		t.Fatalf("contracted to %d vertices, want 8", cm.N)
	}
	// The contracted matrix must equal the mapping-contraction of m.
	want := m.Contract(mapping, 8)
	for i := range want.W {
		if want.W[i] != cm.W[i] {
			t.Fatalf("contracted matrix differs from Contract(mapping) at %d", i)
		}
	}
	// Mapping must be surjective onto [0,8).
	seen := make([]bool, 8)
	for _, l := range mapping {
		if l < 0 || l >= 8 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	for l, ok := range seen {
		if !ok {
			t.Errorf("label %d unused", l)
		}
	}
}

func TestContractToNoOp(t *testing.T) {
	g := gen.Cycle(5, 1)
	m := graph.MatrixFromGraph(g)
	cm, mapping := freshArena().contractTo(m, 10, rng.New(1, 0, 0))
	if cm.N != 5 {
		t.Errorf("t >= n should be a no-op, got n=%d", cm.N)
	}
	for i, l := range mapping {
		if l != int32(i) {
			t.Errorf("mapping[%d] = %d", i, l)
		}
	}
}

func TestKargerSteinKnownCuts(t *testing.T) {
	st := rng.New(99, 0, 0)
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"cycle", gen.Cycle(20, 2), 4},
		{"twocliques", gen.TwoCliques(8, 2, 4, 1), 2},
		{"dumbbell", gen.Dumbbell(8, 4, 1), 1},
		{"complete", gen.Complete(10, 1), 9},
	}
	for _, c := range cases {
		got := KargerStein(c.g, st, 0.95)
		if got.Value != c.want {
			t.Errorf("%s: KS = %d, want %d", c.name, got.Value, c.want)
		}
		if !got.Check(c.g) {
			t.Errorf("%s: inconsistent partition", c.name)
		}
	}
}

func TestKargerSteinMatchesStoerWagnerRandom(t *testing.T) {
	st := rng.New(123, 0, 0)
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.ErdosRenyiM(24, 100, seed, gen.Config{MaxWeight: 5})
		if !g.IsConnected() {
			continue
		}
		want := StoerWagner(g).Value
		got := KargerStein(g, st, 0.95)
		if got.Value != want {
			t.Errorf("seed %d: KS = %d, SW = %d", seed, got.Value, want)
		}
	}
}

func TestEagerSequentialContracts(t *testing.T) {
	g := gen.ErdosRenyiM(200, 2000, 5, gen.Config{MaxWeight: 4})
	cm, mapping, _ := eagerSequential(freshArena(), g, edgeSampler(g.Edges), 40, rng.New(3, 0, 0))
	if cm.N > 40 {
		t.Errorf("eager left %d vertices, want <= 40", cm.N)
	}
	for v, l := range mapping {
		if int(l) >= cm.N || l < 0 {
			t.Fatalf("mapping[%d] = %d out of range", v, l)
		}
	}
	// The matrix the last round writes directly must be the contraction
	// of g by the returned mapping: symmetric, loop-free, parallel edges
	// summed — what relabelling and then accumulating would have built.
	want := graph.MatrixFromGraph(g).Contract(mapping, cm.N)
	for i := range want.W {
		if cm.W[i] != want.W[i] {
			t.Fatalf("matrix cell (%d,%d) = %d, contraction by mapping %d", i/cm.N, i%cm.N, cm.W[i], want.W[i])
		}
	}
	if cm.TotalWeight() > g.TotalWeight() {
		t.Error("contraction increased weight")
	}
	// The contracted graph's cut values are cuts of the original: check a
	// singleton of the contracted graph.
	side := make([]bool, g.N)
	for v := range side {
		side[v] = mapping[v] == 0
	}
	if g.CutValue(side) != cm.WeightedDegree(0) {
		t.Errorf("lifted cut %d != contracted cut %d", g.CutValue(side), cm.WeightedDegree(0))
	}
}

func TestEagerSequentialDisconnected(t *testing.T) {
	g := graph.New(30)
	for i := int32(0); i < 10; i++ {
		g.AddEdge(i, (i+1)%10, 1)
		g.AddEdge(10+i, 10+(i+1)%10, 1)
	}
	// 10 isolated + two rings; contracting to 2 is impossible (>= 12
	// components), must stop when edges run out.
	cm, _, _ := eagerSequential(freshArena(), g, edgeSampler(g.Edges), 2, rng.New(4, 0, 0))
	if w := cm.TotalWeight(); w != 0 {
		t.Errorf("weight %d left after exhaustive contraction", w)
	}
	if cm.N != 12 {
		t.Errorf("components = %d, want 12", cm.N)
	}
}

func TestSequentialMinCutKnownCuts(t *testing.T) {
	st := rng.New(2024, 0, 0)
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"cycle", gen.Cycle(64, 2), 4},
		{"twocliques", gen.TwoCliques(16, 3, 4, 1), 3},
		{"dumbbell", gen.Dumbbell(20, 4, 1), 1},
		{"grid", gen.Grid(8, 8, 1), 2},
	}
	for _, c := range cases {
		got := Sequential(c.g, st, 0.9)
		if got.Value != c.want {
			t.Errorf("%s: MC = %d, want %d (trials %d)", c.name, got.Value, c.want, got.Trials)
		}
		if !got.Check(c.g) {
			t.Errorf("%s: inconsistent partition", c.name)
		}
	}
}

func TestSequentialMatchesSWRandom(t *testing.T) {
	st := rng.New(31337, 0, 0)
	for seed := uint64(20); seed < 28; seed++ {
		g := gen.ErdosRenyiM(40, 240, seed, gen.Config{MaxWeight: 3})
		if !g.IsConnected() {
			continue
		}
		want := StoerWagner(g).Value
		got := Sequential(g, st, 0.9)
		if got.Value != want {
			t.Errorf("seed %d: MC = %d, SW = %d", seed, got.Value, want)
		}
	}
}

func TestSequentialDisconnectedIsZero(t *testing.T) {
	g := graph.New(10)
	g.AddEdge(0, 1, 3)
	g.AddEdge(2, 3, 3)
	got := Sequential(g, rng.New(1, 0, 0), 0.9)
	if got.Value != 0 {
		t.Errorf("disconnected: %d, want 0", got.Value)
	}
	if !got.Check(g) {
		t.Error("inconsistent zero cut")
	}
}

// TestRecursionSuccess pins the bound Trials is computed from: it is
// certain wherever the recursion solves exactly, it never promises less
// than the closed form 1/(2·ln k) it replaced (so no trial count grew),
// and it equals the induction done by hand one level above the leaves:
// 56 → t = 41, s = 41·40/(56·55), 1 − (1 − s)² = 0.7814.
func TestRecursionSuccess(t *testing.T) {
	for _, base := range []int{allCutsBaseSize, BaseCaseSize} {
		for k := 0; k <= base; k++ {
			if p := recursionSuccess(k, base); p != 1 {
				t.Fatalf("recursionSuccess(%d, %d) = %v, want 1 at and below the base", k, base, p)
			}
		}
		for k := base + 1; k <= 100000; k++ {
			p := recursionSuccess(k, base)
			if closed := 1 / (2 * math.Log(float64(k))); p < closed || p >= 1 {
				t.Fatalf("recursionSuccess(%d, %d) = %.4f outside [closed form %.4f, 1)", k, base, p, closed)
			}
		}
	}
	if p := recursionSuccess(56, BaseCaseSize); math.Abs(p-0.7814) > 5e-5 {
		t.Errorf("recursionSuccess(56, %d) = %.5f, want 0.7814", BaseCaseSize, p)
	}
	for n := 2; n <= 1000; n++ {
		want := int(math.Ceil(float64(n)/math.Sqrt2)) + 1
		if got := recursionTarget(n); got != min(want, n-1) {
			t.Fatalf("recursionTarget(%d) = %d, want min(⌈n/√2⌉+1 = %d, n-1)", n, got, want)
		}
	}
}

func TestTrialsFormula(t *testing.T) {
	// More trials for sparser graphs (n²/m factor).
	sparse := Trials(1000, 2000, 0.9)
	dense := Trials(1000, 100000, 0.9)
	if sparse <= dense {
		t.Errorf("sparse trials %d <= dense trials %d", sparse, dense)
	}
	// More trials for higher confidence.
	lo := Trials(500, 5000, 0.5)
	hi := Trials(500, 5000, 0.99)
	if hi <= lo {
		t.Errorf("trials not monotone in success prob: %d <= %d", hi, lo)
	}
	if Trials(4, 10, 0.9) != 1 {
		t.Error("tiny graphs should use a single trial")
	}
	// The benchmark's input and one whose recursion branches once.
	if got := Trials(256, 1536, 0.9); got != 92 {
		t.Errorf("Trials(256, 1536, 0.9) = %d, want 92", got)
	}
	if got := Trials(600, 3000, 0.9); got != 344 {
		t.Errorf("Trials(600, 3000, 0.9) = %d, want 344", got)
	}
	// The all-cuts count recurses to its own, smaller base: at an eager
	// target of 41 it may not assume the leaf is already exact.
	if p := perTrialSuccess(256, 1536, allCutsBaseSize); p >= perTrialSuccess(256, 1536, BaseCaseSize) {
		t.Errorf("all-cuts per-trial bound %.4f is not below the single-cut one", p)
	}
}

func TestCutResultCheck(t *testing.T) {
	g := gen.Cycle(4, 1)
	good := &CutResult{Value: 2, Side: []bool{true, true, false, false}}
	if !good.Check(g) {
		t.Error("valid result rejected")
	}
	badVal := &CutResult{Value: 3, Side: []bool{true, true, false, false}}
	if badVal.Check(g) {
		t.Error("wrong value accepted")
	}
	empty := &CutResult{Value: 0, Side: []bool{false, false, false, false}}
	if empty.Check(g) {
		t.Error("empty side accepted")
	}
	short := &CutResult{Value: 2, Side: []bool{true}}
	if short.Check(g) {
		t.Error("short side accepted")
	}
}
