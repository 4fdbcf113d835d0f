package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/cc"
	"repro/internal/graph"
	"repro/internal/mincut"
)

// swMaxN bounds the graphs given an exact Stoer–Wagner oracle: the
// reference is O(n·m + n² log n) per phase and set-up runs it for every
// graph variant (n=512 ≈ 0.1 s here, n=2048 ≈ 6 s).
const swMaxN = 512

// truth is what set-up knows about one graph version, computed by the
// sequential references, never by the code under test.
type truth struct {
	g          *graph.Graph
	body       []byte // edge-list upload form
	components int    // cc.Sequential
	lambda     uint64 // Stoer–Wagner minimum cut; valid when exact
	exact      bool
	minDegree  uint64 // upper bound on any minimum cut
}

func newTruth(g *graph.Graph, withBody bool) (*truth, error) {
	t := &truth{g: g, components: cc.Sequential(g).Count}
	_, t.minDegree = g.MinDegreeVertex()
	switch {
	case t.components > 1:
		t.exact = true // disconnected: the minimum cut is 0
	case g.N <= swMaxN:
		t.lambda, t.exact = mincut.StoerWagner(g).Value, true
	}
	if withBody {
		var b bytes.Buffer
		if err := graph.WriteEdgeList(&b, g); err != nil {
			return nil, fmt.Errorf("rendering upload body: %w", err)
		}
		t.body = b.Bytes()
	}
	return t, nil
}

// checkCC: the component count must equal the BFS reference.
func (t *truth) checkCC(components int) error {
	if components != t.components {
		return fmt.Errorf("cc: %d components, reference %d", components, t.components)
	}
	return nil
}

// checkMinCut accepts a Monte Carlo cut answer: the reported value must
// be the weight of the reported side, never below the exact minimum,
// and — when full requires it (uncapped trials) — equal to it.
func (t *truth) checkMinCut(value uint64, side []bool, full bool) error {
	if side != nil && value > 0 {
		if got := t.g.CutValue(side); got != value {
			return fmt.Errorf("mincut: value %d but CutValue(side) = %d", value, got)
		}
	}
	if !t.exact {
		return nil
	}
	if value < t.lambda || (full && value != t.lambda) {
		return fmt.Errorf("mincut: value %d, Stoer–Wagner %d", value, t.lambda)
	}
	return nil
}

// checkApproxCut holds the estimate to the O(log n) bracket the
// package's own tests use (a factor 4·log2 n either way). Where the
// exact minimum is unknown the bracket is widened to what is known:
// 1 ≤ λ ≤ minimum degree on a connected graph.
func (t *truth) checkApproxCut(value uint64) error {
	if t.components > 1 {
		if value != 0 {
			return fmt.Errorf("approxcut: %d on a disconnected graph", value)
		}
		return nil
	}
	lo, hi := uint64(1), t.minDegree
	if t.exact {
		lo, hi = t.lambda, t.lambda
	}
	slack := 4 * math.Log2(float64(t.g.N))
	if v := float64(value); v*slack < float64(lo) || v > float64(hi)*slack {
		return fmt.Errorf("approxcut: %d outside [%d/%.0f, %d·%.0f]", value, lo, slack, hi, slack)
	}
	return nil
}

// sideOf expands the wire form of a cut side (vertex list) to a mask.
func sideOf(n int, vertices []int32) ([]bool, error) {
	side := make([]bool, n)
	for _, v := range vertices {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("mincut: side vertex %d out of range", v)
		}
		side[v] = true
	}
	return side, nil
}
