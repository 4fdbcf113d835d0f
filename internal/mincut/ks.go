package mincut

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// BaseCaseSize is the vertex count at or below which recursive
// contraction stops branching and solves exactly (exactCut). Karger–
// Stein recurse down to 6; an exact O(b³) solve stays cheaper than the
// two contract-and-recurse branches below it well above that: whole-
// solve time, measured at every size the recursion visits, falls
// monotonically up to this value and is flat beyond it (table in
// DESIGN.md). An exact leaf never misses a cut that reached it, which
// is what recursionSuccess — and through it Trials — is computed from.
const BaseCaseSize = 41

// exactCut's member sets are one-word bitmasks.
const _ = uint(64 - BaseCaseSize)

// exactCut returns the exact minimum cut of a small dense matrix and one
// side of it (arena-owned, release with putBools) by Stoer–Wagner
// maximum-adjacency search. The live vertices stay contiguous in slots
// [0, k) of a scratch copy (m is not modified), each slot's merged
// originals are a bitmask, and the pass that adds the newest vertex's
// row to the connectivities also picks the next arg-max, so a phase is
// one branch-light sweep per step and the solve allocates nothing.
// m.N must be in [2, 64].
func (a *ksArena) exactCut(m *graph.Matrix) (uint64, []bool) {
	n := m.N
	w := a.getWords(n * n)
	copy(w, m.W)
	conn := a.getWords(n)
	members := a.getWords(n)
	for i := range members {
		members[i] = 1 << uint(i)
	}
	cand := a.getInts(n) // slots outside the growing set A
	best, bestSet := uint64(math.MaxUint64), uint64(0)
	for k := n; k > 1; k-- {
		// A starts as {slot 0}: connectivities are its row.
		c := k - 1
		sel, selW := 0, uint64(0)
		for i := 0; i < c; i++ {
			cand[i] = int32(i + 1)
			x := w[i+1]
			conn[i+1] = x
			if x > selW {
				sel, selW = i, x
			}
		}
		prev, last := 0, 0
		for {
			prev, last = last, int(cand[sel])
			c--
			cand[sel] = cand[c]
			if c == 0 {
				break // selW is the cut of the phase: ({last}, rest)
			}
			row := w[last*n : last*n+k]
			sel, selW = 0, 0
			for i, v := range cand[:c] {
				x := conn[v] + row[v]
				conn[v] = x
				if x > selW {
					sel, selW = i, x
				}
			}
		}
		if selW < best {
			best, bestSet = selW, members[last]
		}
		// Merge last into prev, then move the final slot into last's.
		members[prev] |= members[last]
		rp, rl := w[prev*n:prev*n+k], w[last*n:last*n+k]
		for j := range rp {
			x := rp[j] + rl[j]
			rp[j] = x
			w[j*n+prev] = x
		}
		rp[prev] = 0
		if e := k - 1; last != e {
			copy(rl, w[e*n:e*n+k])
			for j := 0; j < k; j++ {
				w[j*n+last] = w[j*n+e]
			}
			rl[last] = 0
			members[last] = members[e]
		}
	}
	side := a.getBools(n)
	for v := range side {
		side[v] = bestSet>>uint(v)&1 == 1
	}
	a.putInts(cand)
	a.putWords(members)
	a.putWords(conn)
	a.putWords(w)
	return best, side
}

// contractTo randomly contracts the matrix to t vertices: edges are
// selected with probability proportional to their weight and contracted
// until t vertices remain (§2.4). It returns the compacted t×t matrix and
// the mapping from m's vertices to the contracted ones, both owned by the
// arena — the caller releases them with putWords(cm.W) / putInts(mapping)
// once the recursion below them has been folded. m is not modified.
// O(n·(n-t)) time; O(n²) scratch comes from (and returns to) the arena.
func (a *ksArena) contractTo(m *graph.Matrix, t int, st *rng.Stream) (*graph.Matrix, []int32) {
	n := m.N
	if t >= n {
		mapping := a.getInts(n)
		for i := range mapping {
			mapping[i] = int32(i)
		}
		cw := a.getWords(n * n)
		copy(cw, m.W)
		return &graph.Matrix{N: n, W: cw}, mapping
	}
	ww := a.getWords(n * n)
	copy(ww, m.W)
	w := &graph.Matrix{N: n, W: ww}
	alive := a.getInts(n)
	for i := range alive {
		alive[i] = int32(i)
	}
	deg := a.getWords(n)
	var total uint64 // 2 * sum of edge weights
	for i := 0; i < n; i++ {
		deg[i] = w.WeightedDegree(int32(i))
		total += deg[i]
	}
	uf := a.uf
	uf.Reset(n)

	live := n
	for live > t && total > 0 {
		// Pick endpoint u with probability deg[u]/total, then neighbor v
		// with probability w(u,v)/deg[u]; together (u,v) has probability
		// proportional to its weight (counting both directions).
		x := st.Uint64n(total)
		var u int32 = -1
		for _, a := range alive[:live] {
			if x < deg[a] {
				u = a
				break
			}
			x -= deg[a]
		}
		if u < 0 { // numerical corner: nothing live with weight
			break
		}
		y := st.Uint64n(deg[u])
		var v int32 = -1
		rowU := w.W[int(u)*n : (int(u)+1)*n]
		for _, b := range alive[:live] {
			if b == u {
				continue
			}
			if y < rowU[b] {
				v = b
				break
			}
			y -= rowU[b]
		}
		if v < 0 {
			break
		}
		// Merge v into u.
		wuv := rowU[v]
		rowV := w.W[int(v)*n : (int(v)+1)*n]
		for _, k := range alive[:live] {
			if k == u || k == v {
				continue
			}
			nw := rowU[k] + rowV[k]
			rowU[k] = nw
			w.W[int(k)*n+int(u)] = nw
			w.W[int(k)*n+int(v)] = 0
		}
		deg[u] = deg[u] + deg[v] - 2*wuv
		total -= 2 * wuv
		rowU[v] = 0
		w.W[int(v)*n+int(u)] = 0
		uf.Union(u, v)
		// u stays the representative row in the matrix; remove v from the
		// live set (matrix representative identity is positional and
		// independent of union-find internals).
		for idx, a := range alive[:live] {
			if a == v {
				alive[idx] = alive[live-1]
				live--
				break
			}
		}
	}

	// Compact: map union-find classes of live vertices to [0, live).
	// classToLabel is written for every live root before it is read (every
	// vertex's root is a live representative), so the arena slice needs no
	// zeroing.
	mapping := a.getInts(n)
	classToLabel := a.getInts(n)
	for idx := 0; idx < live; idx++ {
		classToLabel[uf.Find(alive[idx])] = int32(idx)
	}
	for i := 0; i < n; i++ {
		mapping[i] = classToLabel[uf.Find(int32(i))]
	}

	// Every cell of the compacted matrix is assigned, so its arena backing
	// needs no zeroing either.
	out := &graph.Matrix{N: live, W: a.getWords(live * live)}
	for ai := 0; ai < live; ai++ {
		srcRow := w.W[int(alive[ai])*n : (int(alive[ai])+1)*n]
		dstRow := out.W[ai*live : (ai+1)*live]
		for aj := 0; aj < live; aj++ {
			dstRow[aj] = srcRow[alive[aj]]
		}
		dstRow[ai] = 0
	}
	a.putInts(classToLabel)
	a.putInts(alive)
	a.putWords(deg)
	a.putWords(ww)
	return out, mapping
}

// cutsAtLeast reports whether every cut of m weighs at least bound. It is
// a proof, never a guess: Nagamochi and Ibaraki's lemma says that in a
// maximum-adjacency order v_1…v_k, where r(v_i) is v_i's weight into
// {v_1…v_{i−1}} when it joins, λ(v_{i−1}, v_i) ≥ r(v_i). A cut lighter
// than bound therefore separates no consecutive pair with r ≥ bound, so
// one pass contracts every such pair at once and the next pass repeats
// on the contracted matrix; reaching one vertex proves the claim. It
// gives up — and the caller solves exactly — at the first vertex whose
// degree is below bound (a real cut; the last pair's cut of the phase is
// one of these), or after a pass that merges nothing. Like exactCut it
// keeps the live vertices in slots [0, k) of an arena copy, m is not
// modified, and it reads no randomness. m.N must be at least 1.
func (a *ksArena) cutsAtLeast(m *graph.Matrix, bound uint64) bool {
	n := m.N
	w, nw := a.getWords(n*n), a.getWords(n*n)
	copy(w, m.W)
	conn := a.getWords(n)
	cand, label := a.getInts(n), a.getInts(n)
	defer func() {
		a.putInts(label)
		a.putInts(cand)
		a.putWords(conn)
		a.putWords(nw)
		a.putWords(w)
	}()
	for k := n; k > 1; {
		for v := 0; v < k; v++ {
			var d uint64
			for _, x := range w[v*n : v*n+k] {
				d += x
			}
			if d < bound {
				return false
			}
		}
		// MA order from slot 0; a vertex joins its predecessor's class
		// when its attachment certifies the pair.
		c := k - 1
		sel, selW := 0, uint64(0)
		for i := 0; i < c; i++ {
			cand[i] = int32(i + 1)
			x := w[i+1]
			conn[i+1] = x
			if x > selW {
				sel, selW = i, x
			}
		}
		label[0] = 0
		classes, prev := int32(1), 0
		for c > 0 {
			v := int(cand[sel])
			c--
			cand[sel] = cand[c]
			if selW >= bound {
				label[v] = label[prev]
			} else {
				label[v] = classes
				classes++
			}
			prev = v
			row := w[v*n : v*n+k]
			sel, selW = 0, 0
			for i, u := range cand[:c] {
				x := conn[u] + row[u]
				conn[u] = x
				if x > selW {
					sel, selW = i, x
				}
			}
		}
		kk := int(classes)
		switch kk {
		case 1:
			return true
		case k:
			return false
		}
		for i := 0; i < kk; i++ {
			clear(nw[i*n : i*n+kk])
		}
		for i := 0; i < k; i++ {
			dst := nw[int(label[i])*n:]
			for j, x := range w[i*n : i*n+k] {
				dst[label[j]] += x
			}
		}
		for i := 0; i < kk; i++ {
			nw[i*n+i] = 0
		}
		w, nw, k = nw, w, kk
	}
	return true
}

// ksRecurse is one run of recursive contraction (§2.4): contract to
// ⌈n/√2⌉+1 twice independently, recurse on both, keep the better cut.
// Returns the best cut value found and its side over m's vertices; the
// side is arena-owned — the caller releases it with putBools once done.
//
// bound is a value the caller already holds a cut for (math.MaxUint64:
// none). A leaf whose every cut cutsAtLeast proves to weigh ≥ bound
// returns (math.MaxUint64, nil) without solving; otherwise it solves
// exactly. Both read no randomness, so the draws are the unbounded run's
// and — branches keep the strictly better cut, first branch on ties —
// the run returns the unbounded (value, side) whenever that value is
// below bound and a value ≥ bound otherwise.
func (a *ksArena) ksRecurse(m *graph.Matrix, st *rng.Stream, bound uint64) (uint64, []bool) {
	n := m.N
	if n <= BaseCaseSize {
		if bound < math.MaxUint64 && a.cutsAtLeast(m, bound) {
			return math.MaxUint64, nil
		}
		return a.exactCut(m)
	}
	t := recursionTarget(n)
	bestVal := uint64(math.MaxUint64)
	var bestSide []bool
	for branch := 0; branch < 2; branch++ {
		cm, mapping := a.contractTo(m, t, st)
		val, side := a.ksRecurse(cm, st, bound)
		a.putWords(cm.W)
		if val < bestVal {
			bestVal = val
			lifted := a.getBools(n)
			for v := 0; v < n; v++ {
				lifted[v] = side[mapping[v]]
			}
			if bestSide != nil {
				a.putBools(bestSide)
			}
			bestSide = lifted
		}
		a.putBools(side)
		a.putInts(mapping)
	}
	return bestVal, bestSide
}

// ksRecurse is the standalone form: it borrows a pooled arena for the
// run and returns a side the caller owns outright.
func ksRecurse(m *graph.Matrix, st *rng.Stream) (uint64, []bool) {
	a := getKSArena()
	val, side := a.ksRecurse(m, st, math.MaxUint64)
	out := append([]bool(nil), side...)
	a.putBools(side)
	putKSArena(a)
	return val, out
}

// KargerSteinTrials returns the number of independent recursive
// contraction runs needed to find a minimum cut with probability at least
// successProb, from the same per-run bound (recursionSuccess) the
// Eager+Recursive trial count uses — the two counts stay comparable.
func KargerSteinTrials(n int, successProb float64) int {
	if n < 8 {
		return 1
	}
	return repetitions(recursionSuccess(n, BaseCaseSize), successProb, 1)
}

// KargerStein computes a global minimum cut with probability at least
// successProb by repeated recursive contraction — the paper's sequential
// "KS" baseline (the cache-oblivious variant shares this exact algorithm;
// our compact matrix layout stands in for its cache-friendly layout).
// One arena serves all trials, so the steady-state allocation rate across
// the whole run is near zero. Its runs are unbounded: as the baseline it
// solves every leaf.
func KargerStein(g *graph.Graph, st *rng.Stream, successProb float64) *CutResult {
	if g.N < 2 {
		return &CutResult{Value: 0, Side: make([]bool, g.N)}
	}
	best := &CutResult{Value: math.MaxUint64}
	m := graph.MatrixFromGraph(g)
	trials := KargerSteinTrials(g.N, successProb)
	a := getKSArena()
	for i := 0; i < trials; i++ {
		val, side := a.ksRecurse(m, st, math.MaxUint64)
		if val < best.Value {
			best.Value = val
			best.Side = append(best.Side[:0], side...)
		}
		a.putBools(side)
	}
	putKSArena(a)
	if dv, ds := minDegreeCut(g); dv < best.Value {
		best.Value = dv
		best.Side = ds
	}
	best.Trials = trials
	return best
}
