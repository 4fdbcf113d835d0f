package mincut

import (
	"math"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// sampleMatrixEdges draws s edges from the distributed adjacency matrix,
// each with probability proportional to its weight, and returns the
// permuted sample at the root (dense-representation sparsification used
// inside the Recursive Step). Non-roots return nil.
func sampleMatrixEdges(c *bsp.Comm, blk *dist.MatrixBlock, s int, st *rng.Stream) []graph.Edge {
	// Local total weight (each undirected edge counted once per incident
	// row, i.e. twice globally — uniform double counting keeps the
	// distribution proportional).
	var wi uint64
	for _, w := range blk.W {
		wi += w
	}
	sums := c.Gather(0, []uint64{wi})
	var counts [][]uint64
	if c.Rank() == 0 {
		weights := make([]uint64, c.Size())
		var total uint64
		for r := range sums {
			weights[r] = sums[r][0]
			total += sums[r][0]
		}
		counts = make([][]uint64, c.Size())
		for r := range counts {
			counts[r] = []uint64{0}
		}
		if total > 0 {
			alias := rng.NewAliasSampler(weights)
			for k := 0; k < s; k++ {
				counts[alias.Sample(st)][0]++
			}
		}
	}
	quota := int(c.Scatter(0, counts)[0])

	var chosen []graph.Edge
	if quota > 0 {
		ps := rng.NewPrefixSampler(blk.W)
		for k := 0; k < quota; k++ {
			idx := ps.Sample(st)
			row := blk.Lo + idx/blk.N
			col := idx % blk.N
			chosen = append(chosen, graph.Edge{U: int32(row), V: int32(col), W: blk.W[idx]})
		}
		c.Ops(uint64(quota) * uint64(math.Ilogb(float64(len(blk.W)+2))+1))
	}
	parts := c.Gather(0, dist.EncodeEdges(chosen))
	if c.Rank() != 0 {
		return nil
	}
	var sample []graph.Edge
	for _, p := range parts {
		sample = append(sample, dist.DecodeEdges(p)...)
	}
	st.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	return sample
}

// denseContractTo contracts the distributed matrix to at most t vertices
// with iterated sampling over the dense representation: sparsify from the
// matrix, prefix-select at the root, and apply dense bulk edge
// contraction (Lemma 4.1). It returns the contracted block (whose N is
// the new vertex count) and the mapping (replicated) from blk's vertices.
func denseContractTo(c *bsp.Comm, blk *dist.MatrixBlock, t int, st *rng.Stream) (*dist.MatrixBlock, []int32) {
	n := blk.N
	mapping := make([]int32, n)
	for i := range mapping {
		mapping[i] = int32(i)
	}
	nCur := n
	for nCur > t {
		s := sampleBudget(nCur, nCur*nCur/2+1)
		sample := sampleMatrixEdges(c, blk, s, st)
		var payload []uint64
		if c.Rank() == 0 {
			if len(sample) == 0 {
				// No edges left anywhere: contraction cannot proceed.
				payload = make([]uint64, nCur+1)
				payload[0] = uint64(nCur)
				for i := range nCur {
					payload[i+1] = uint64(i)
				}
			} else {
				uf := graph.NewUnionFind(nCur)
				prefixContract(uf, sample, t)
				labels := uf.Labels()
				payload = make([]uint64, nCur+1)
				payload[0] = uint64(uf.Count())
				for i, l := range labels {
					payload[i+1] = uint64(uint32(l))
				}
			}
		}
		payload = c.Broadcast(0, payload)
		count := int(payload[0])
		if count == nCur {
			break // no progress possible (edgeless remainder)
		}
		labels := make([]int32, nCur)
		for i := range labels {
			labels[i] = int32(uint32(payload[i+1]))
		}
		blk = blk.Contract(c, labels, count)
		for v := 0; v < n; v++ {
			mapping[v] = labels[mapping[v]]
		}
		nCur = count
	}
	return blk, mapping
}

// redistribute reshapes a matrix distributed over the parent communicator
// into the row-block distribution of a processor subgroup. groupRanks
// lists the parent ranks of the target group in subgroup-rank order.
// Every parent processor participates; members of the group return their
// new block, others nil.
func redistribute(c *bsp.Comm, blk *dist.MatrixBlock, groupRanks []int) *dist.MatrixBlock {
	n := blk.N
	gp := len(groupRanks)
	parts := make([][]uint64, c.Size())
	for i := blk.Lo; i < blk.Hi; i++ {
		subOwner := dist.OwnerOf(n, gp, i)
		dst := groupRanks[subOwner]
		parts[dst] = append(parts[dst], uint64(i))
		parts[dst] = append(parts[dst], blk.Row(i)...)
	}
	got := c.AllToAllOwned(parts)
	// Am I in the group?
	myIdx := -1
	for idx, r := range groupRanks {
		if r == c.Rank() {
			myIdx = idx
		}
	}
	if myIdx < 0 {
		return nil
	}
	lo, hi := dist.BlockRange(n, gp, myIdx)
	out := &dist.MatrixBlock{N: n, Lo: lo, Hi: hi, W: make([]uint64, (hi-lo)*n)}
	for _, words := range got {
		for off := 0; off+1+n <= len(words)+0; off += 1 + n {
			row := int(words[off])
			copy(out.W[(row-lo)*n:(row-lo+1)*n], words[off+1:off+1+n])
		}
	}
	return out
}

// packSide encodes a boolean side as bit-packed words prefixed by length.
func packSide(side []bool) []uint64 {
	words := make([]uint64, 1+(len(side)+63)/64)
	words[0] = uint64(len(side))
	for i, s := range side {
		if s {
			words[1+i/64] |= 1 << uint(i%64)
		}
	}
	return words
}

// unpackSide decodes packSide's encoding.
func unpackSide(words []uint64) []bool {
	n := int(words[0])
	side := make([]bool, n)
	for i := range side {
		side[i] = words[1+i/64]>>uint(i%64)&1 == 1
	}
	return side
}

// recursiveDistributed runs Recursive Contraction (§4.3) on a distributed
// adjacency matrix: contract to ⌈n/√2⌉+1, split the processors in half —
// each half recursing on its own independently contracted copy — and keep
// the better cut. Once a single processor remains, it finishes with the
// sequential recursion. Every processor of c returns the same (value,
// side over blk.N vertices).
func recursiveDistributed(c *bsp.Comm, blk *dist.MatrixBlock, st *rng.Stream) (uint64, []bool) {
	n := blk.N
	if c.Size() == 1 {
		m := &graph.Matrix{N: n, W: blk.W}
		if n <= 1 {
			return 0, make([]bool, n)
		}
		return ksRecurse(m, st)
	}
	if n <= BaseCaseSize {
		// Gather at rank 0, solve exactly, broadcast.
		full := dist.GatherMatrix(c, 0, blk)
		var payload []uint64
		if c.Rank() == 0 {
			a := getKSArena()
			val, side := a.exactCut(full)
			payload = append([]uint64{val}, packSide(side)...)
			a.putBools(side)
			putKSArena(a)
		}
		payload = c.Broadcast(0, payload)
		return payload[0], unpackSide(payload[1:])
	}

	p := c.Size()
	pA := p / 2
	groupA := make([]int, pA)
	groupB := make([]int, p-pA)
	for i := range groupA {
		groupA[i] = i
	}
	for i := range groupB {
		groupB[i] = pA + i
	}

	// Both halves need the full current matrix: redistribute into each.
	blkA := redistribute(c, blk, groupA)
	blkB := redistribute(c, blk, groupB)

	inA := c.Rank() < pA
	color := 1
	if inA {
		color = 0
	}
	sub := c.Split(color, c.Rank())
	myBlk := blkB
	if inA {
		myBlk = blkA
	}

	// Each half independently contracts its copy to t and recurses.
	t := recursionTarget(n)
	cblk, mapping := denseContractTo(sub, myBlk, t, st.Derive(uint32(2*n+color)))
	val, side := recursiveDistributed(sub, cblk, st)
	sub.Close()
	lifted := make([]bool, n)
	for v := 0; v < n; v++ {
		lifted[v] = side[mapping[v]]
	}

	// Compare the two halves on the parent communicator: rank pA ships
	// its branch result to rank 0, which broadcasts the winner.
	if c.Rank() == pA {
		c.Send(0, append([]uint64{val}, packSide(lifted)...))
	}
	c.Sync()
	var payload []uint64
	if c.Rank() == 0 {
		in := c.Recv(pA)
		bVal := in[0]
		bSide := unpackSide(in[1:])
		if bVal < val {
			val, lifted = bVal, bSide
		}
		payload = append([]uint64{val}, packSide(lifted)...)
	}
	payload = c.Broadcast(0, payload)
	return payload[0], unpackSide(payload[1:])
}
