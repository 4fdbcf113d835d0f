package bsp

// MPI-style collective operations (§2.1 of the paper). Each takes O(1)
// supersteps; costs follow the paper's stated bounds: O(k) communication
// volume and time, O(k/B + 1) cache misses (the latter is a property of
// the sequential copying below, not separately accounted).
//
// All collectives are synchronizing: every processor of the communicator
// must call them together, in the same order.
//
// # Result ownership
//
// Collective results are backed by per-Comm scratch buffers that are
// reused by the next call of the *same* collective on the same Comm
// (AllReduce shares Broadcast's scratch). In steady state a collective
// therefore allocates nothing. A result stays valid across Sync and
// across calls of *other* collectives; callers that need a result beyond
// the next same-collective call must copy it. Callers may freely modify
// the returned contents.

// collScratch holds one processor's collective scratch: grow-only buffers
// reused call over call so steady-state collectives are allocation-free.
type collScratch struct {
	hdr      [1]uint64  // Broadcast's length header
	bcast    []uint64   // Broadcast / AllReduce result
	red      []uint64   // Reduce result
	scat     []uint64   // Scatter result
	views    [][]uint64 // RecvAll / Owned-collective inbox views
	gather   vecScratch
	allGath  vecScratch
	allToAll vecScratch
}

// vecScratch backs one [][]uint64-shaped collective result: parts are
// views into a single flat copy buffer.
type vecScratch struct {
	flat  []uint64
	parts [][]uint64
}

// growWords returns buf resized to length n, reallocating only when the
// capacity is insufficient.
func growWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// collectInbox copies this processor's inbox column into s and returns
// the per-source views.
func (c *Comm) collectInbox(s *vecScratch) [][]uint64 {
	p := c.m.p
	total := 0
	for src := 0; src < p; src++ {
		total += len(c.Recv(src))
	}
	s.flat = growWords(s.flat, total)
	if cap(s.parts) < p {
		s.parts = make([][]uint64, p)
	}
	s.parts = s.parts[:p]
	off := 0
	for src := 0; src < p; src++ {
		in := c.Recv(src)
		n := copy(s.flat[off:off+len(in)], in)
		s.parts[src] = s.flat[off : off+n : off+n]
		off += n
	}
	return s.parts
}

// Broadcast distributes the root's words to all processors; every caller
// returns the full payload. The root's message to each rank opens with the
// payload length k, so every rank picks the same strategy from what it
// received (see bcastDirect) with no separate announcement round: a direct
// send (1 superstep) for small payloads and at p = 2, otherwise the
// two-phase scatter + all-gather (2 supersteps), in which no processor
// sends or receives more than O(k + p) words — the classic
// O(1)-superstep communication-optimal broadcast.
func (c *Comm) Broadcast(root int, words []uint64) []uint64 {
	p := c.m.p
	if p == 1 {
		c.sc.bcast = growWords(c.sc.bcast, len(words))
		copy(c.sc.bcast, words)
		return c.sc.bcast
	}
	// Superstep 1: the root sends [k | payload] (direct) or [k | chunk dst]
	// (two-phase) to every rank.
	if c.rank == root {
		k := len(words)
		c.sc.hdr[0] = uint64(k)
		direct := bcastDirect(k, p)
		for dst := 0; dst < p; dst++ {
			c.Send(dst, c.sc.hdr[:1])
			if direct {
				c.Send(dst, words)
			} else {
				c.Send(dst, words[dst*k/p:(dst+1)*k/p])
			}
		}
	}
	c.Sync()
	in := c.Recv(root)
	k := int(in[0])
	c.sc.bcast = growWords(c.sc.bcast, k)
	out := c.sc.bcast
	if bcastDirect(k, p) {
		copy(out, in[1:])
		return out
	}
	// Superstep 2: all-gather the chunks. Chunk boundaries follow from k,
	// so the chunks travel without offsets.
	for dst := 0; dst < p; dst++ {
		c.Send(dst, in[1:])
	}
	c.Sync()
	for src := 0; src < p; src++ {
		copy(out[src*k/p:], c.Recv(src))
	}
	return out
}

// bcastDirect reports whether a k-word broadcast over p > 1 processors
// sends the payload whole to every rank: one superstep of h = p(k+1),
// where two-phase takes two of h ≈ k+p and ≈ k. Below 2p words a chunk
// is at most two words, so the words two-phase saves are O(p²) and a
// second superstep's latency outweighs them. At p = 2 direct moves
// 2k+2 words, no more than two-phase's two supersteps together (which
// also have rank 1 send its half back to a root that holds it), so two
// processors always broadcast directly.
func bcastDirect(k, p int) bool { return k < 2*p || p == 2 }

// Gather collects every processor's words at the root. At the root the
// result has one entry per source rank; at other ranks it is nil.
func (c *Comm) Gather(root int, words []uint64) [][]uint64 {
	c.Send(root, words)
	c.Sync()
	if c.rank != root {
		return nil
	}
	return c.collectInbox(&c.sc.gather)
}

// GatherOwned is Gather for hot paths: the payload's ownership transfers
// to the runtime (no send-side copy) and the root's result aliases
// runtime storage, valid only until the next Sync. Non-roots return nil.
func (c *Comm) GatherOwned(root int, words []uint64) [][]uint64 {
	c.SendOwned(root, words)
	c.Sync()
	if c.rank != root {
		return nil
	}
	return c.inboxViews()
}

// AllToAllOwned is AllToAll for hot paths: each part's ownership
// transfers to the runtime and the received parts alias runtime storage,
// valid only until the next Sync.
func (c *Comm) AllToAllOwned(parts [][]uint64) [][]uint64 {
	for dst := 0; dst < c.m.p; dst++ {
		c.SendOwned(dst, parts[dst])
	}
	c.Sync()
	return c.inboxViews()
}

// AllGather collects every processor's words at every processor.
func (c *Comm) AllGather(words []uint64) [][]uint64 {
	for dst := 0; dst < c.m.p; dst++ {
		c.Send(dst, words)
	}
	c.Sync()
	return c.collectInbox(&c.sc.allGath)
}

// Scatter distributes parts[i] to processor i; every caller returns its
// own part. Only the root's parts argument is consulted.
func (c *Comm) Scatter(root int, parts [][]uint64) []uint64 {
	if c.rank == root {
		for dst := 0; dst < c.m.p; dst++ {
			c.Send(dst, parts[dst])
		}
	}
	c.Sync()
	in := c.Recv(root)
	c.sc.scat = growWords(c.sc.scat, len(in))
	copy(c.sc.scat, in)
	return c.sc.scat
}

// AllToAll sends parts[i] to processor i and returns the parts received,
// indexed by source.
func (c *Comm) AllToAll(parts [][]uint64) [][]uint64 {
	for dst := 0; dst < c.m.p; dst++ {
		c.Send(dst, parts[dst])
	}
	c.Sync()
	return c.collectInbox(&c.sc.allToAll)
}

// ReduceOp is an associative elementwise operator on words.
type ReduceOp func(a, b uint64) uint64

// Predefined reduce operators.
var (
	OpSum ReduceOp = func(a, b uint64) uint64 { return a + b }
	OpMin ReduceOp = func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	OpMax ReduceOp = func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
)

// Reduce combines equal-length vectors elementwise with op at the root.
// Non-roots return nil.
func (c *Comm) Reduce(root int, vec []uint64, op ReduceOp) []uint64 {
	c.Send(root, vec)
	c.Sync()
	if c.rank != root {
		return nil
	}
	return c.fold(&c.sc.red, op)
}

// AllReduce combines equal-length vectors elementwise with op and returns
// the result at every processor in one superstep: every rank sends its
// vector to every rank and folds its inbox as Reduce's root does, so
// every rank computes the same words even for a non-commutative op. Each
// rank receives p·k words, the root's in-degree in Reduce. The result
// shares Broadcast's scratch.
func (c *Comm) AllReduce(vec []uint64, op ReduceOp) []uint64 {
	for dst := 0; dst < c.m.p; dst++ {
		c.Send(dst, vec)
	}
	c.Sync()
	return c.fold(&c.sc.bcast, op)
}

// fold combines the delivered vectors elementwise with op in source-rank
// order into the scratch buffer *dst and returns it.
func (c *Comm) fold(dst *[]uint64, op ReduceOp) []uint64 {
	first := c.Recv(0)
	*dst = growWords(*dst, len(first))
	out := *dst
	copy(out, first)
	for src := 1; src < c.m.p; src++ {
		in := c.Recv(src)
		for i := range out {
			out[i] = op(out[i], in[i])
		}
	}
	return out
}

// Barrier synchronizes without exchanging data.
func (c *Comm) Barrier() { c.Sync() }
