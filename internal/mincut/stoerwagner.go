package mincut

import (
	"math"

	"repro/internal/graph"
)

// StoerWagner computes the exact global minimum cut deterministically by
// maximum-adjacency search (Stoer & Wagner, JACM 1997) — the paper's "SW"
// baseline. This adjacency-matrix implementation runs n-1 phases of O(n²)
// work (O(n³) total), trading the heap for the dense row scans whose poor
// locality the paper's Figure 9 exhibits.
func StoerWagner(g *graph.Graph) *CutResult {
	n := g.N
	if n < 2 {
		return &CutResult{Value: 0, Side: make([]bool, n)}
	}
	m := graph.MatrixFromGraph(g)
	// members[i] lists the original vertices merged into position i.
	members := make([][]int32, n)
	for i := range members {
		members[i] = []int32{int32(i)}
	}
	alive := make([]int32, n)
	for i := range alive {
		alive[i] = int32(i)
	}
	live := n

	best := uint64(math.MaxUint64)
	var bestMembers []int32

	conn := make([]uint64, n) // connectivity to the growing set A
	inA := make([]bool, n)

	for live > 1 {
		// Maximum adjacency search from alive[0].
		for _, v := range alive[:live] {
			conn[v] = 0
			inA[v] = false
		}
		var prev, last int32 = -1, alive[0]
		inA[last] = true
		row := m.W[int(last)*n : (int(last)+1)*n]
		for _, v := range alive[:live] {
			if !inA[v] {
				conn[v] += row[v]
			}
		}
		for step := 1; step < live; step++ {
			// Select the most connected vertex outside A.
			var sel int32 = -1
			var selW uint64
			for _, v := range alive[:live] {
				if !inA[v] && (sel < 0 || conn[v] > selW) {
					sel = v
					selW = conn[v]
				}
			}
			prev, last = last, sel
			inA[sel] = true
			row = m.W[int(sel)*n : (int(sel)+1)*n]
			for _, v := range alive[:live] {
				if !inA[v] {
					conn[v] += row[v]
				}
			}
		}
		// Cut of the phase: ({last-supervertex}, rest).
		if conn[last] < best {
			best = conn[last]
			bestMembers = append([]int32(nil), members[last]...)
		}
		// Merge last into prev.
		rowPrev := m.W[int(prev)*n : (int(prev)+1)*n]
		rowLast := m.W[int(last)*n : (int(last)+1)*n]
		for _, k := range alive[:live] {
			if k == prev || k == last {
				continue
			}
			nw := rowPrev[k] + rowLast[k]
			rowPrev[k] = nw
			m.W[int(k)*n+int(prev)] = nw
			m.W[int(k)*n+int(last)] = 0
		}
		rowPrev[last] = 0
		rowLast[prev] = 0
		members[prev] = append(members[prev], members[last]...)
		for idx, a := range alive[:live] {
			if a == last {
				alive[idx] = alive[live-1]
				live--
				break
			}
		}
	}

	side := make([]bool, n)
	for _, v := range bestMembers {
		side[v] = true
	}
	return &CutResult{Value: best, Side: side, Trials: 1}
}
