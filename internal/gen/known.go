package gen

import (
	"fmt"

	"repro/internal/graph"
)

// The generators below produce corner cases with known, deterministic
// minimum-cut values, mirroring the artifact's verification_graphs.sh.

// Cycle returns the n-cycle with uniform edge weight w. Its minimum cut
// is 2w (any two edges of the ring).
func Cycle(n int, w uint64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(int32(i), int32((i+1)%n), w)
	}
	return g
}

// Path returns the n-path with uniform weight w; its minimum cut is w.
func Path(n int, w uint64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(int32(i), int32(i+1), w)
	}
	return g
}

// Star returns a star on n vertices (center 0) with uniform weight w;
// its minimum cut is w (any single leaf).
func Star(n int, w uint64) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, int32(i), w)
	}
	return g
}

// Complete returns K_n with uniform weight w; its minimum cut is
// (n-1)·w (any singleton).
func Complete(n int, w uint64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(int32(i), int32(j), w)
		}
	}
	return g
}

// TwoCliques returns two K_half cliques of intra-clique weight heavy
// joined by k bridge edges of weight light each. For
// light*k < (half-1)*heavy the unique minimum cut separates the cliques
// with value k*light — the canonical clustering workload.
func TwoCliques(half, k int, heavy, light uint64) *graph.Graph {
	if k > half {
		panic(fmt.Sprintf("gen: TwoCliques needs k <= half, got k=%d half=%d", k, half))
	}
	g := graph.New(2 * half)
	for i := 0; i < half; i++ {
		for j := i + 1; j < half; j++ {
			g.AddEdge(int32(i), int32(j), heavy)
			g.AddEdge(int32(half+i), int32(half+j), heavy)
		}
	}
	for b := 0; b < k; b++ {
		g.AddEdge(int32(b), int32(half+b), light)
	}
	return g
}

// Grid returns the rows×cols 4-neighbor grid with uniform weight w. Its
// minimum cut is w·min(rows, cols) for rows, cols >= 2... but for
// simplicity callers should use MinCutOfGrid, which accounts for the
// corner cut: the minimum cut of a grid with unit weights is
// min(rows, cols, 2)·w, since cutting off a corner vertex costs 2w.
func Grid(rows, cols int, w uint64) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1), w)
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c), w)
			}
		}
	}
	return g
}

// MinCutOfGrid returns the exact minimum cut value of Grid(rows, cols, w).
func MinCutOfGrid(rows, cols int, w uint64) uint64 {
	if rows == 1 && cols == 1 {
		return 0
	}
	if rows == 1 || cols == 1 {
		return w // path
	}
	m := rows
	if cols < m {
		m = cols
	}
	if m > 2 {
		m = 2 // corner cut costs 2w, cheaper than slicing a whole row/col
	}
	return uint64(m) * w
}

// Dumbbell returns two cycles of given size joined by a single edge of
// weight bridgeW; its minimum cut is min(bridgeW, 2·ringW).
func Dumbbell(size int, ringW, bridgeW uint64) *graph.Graph {
	g := graph.New(2 * size)
	for i := 0; i < size; i++ {
		g.AddEdge(int32(i), int32((i+1)%size), ringW)
		g.AddEdge(int32(size+i), int32(size+(i+1)%size), ringW)
	}
	g.AddEdge(0, int32(size), bridgeW)
	return g
}

// PlantedCut returns two Watts–Strogatz(half, k, 0.3) halves (seeds seed
// and seed+1) joined by cross unit edges i — half+i. While cross is below
// both halves' minimum cuts the planted cut, value cross, is the unique
// minimum and lighter than every singleton.
func PlantedCut(half, k, cross int, seed uint64) *graph.Graph {
	if cross > half {
		panic(fmt.Sprintf("gen: PlantedCut needs cross <= half, got cross=%d half=%d", cross, half))
	}
	g := graph.New(2 * half)
	for i, s := range []uint64{seed, seed + 1} {
		for _, e := range WattsStrogatz(half, k, 0.3, s, Config{}).Edges {
			g.AddEdge(e.U+int32(i*half), e.V+int32(i*half), e.W)
		}
	}
	for i := 0; i < cross; i++ {
		g.AddEdge(int32(i), int32(half+i), 1)
	}
	return g
}
