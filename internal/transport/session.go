package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// A Session is one BSP run on the mesh, keyed by epoch and spanning
// every mesh rank: it is the run's Transport and this process's
// Endpoint, and a session rank is a mesh rank.
//
// Superstep delivery: Exchange coalesces everything staged for a peer
// into one data frame carrying the sender's full per-destination size
// vector, so every rank reconstructs the same p×p size matrix and
// accounts the identical h-relation the in-process finalizer would.
// Read pumps park each inbound frame on the session's step state;
// Exchange blocks on a condition variable until all p-1 peer frames
// for its step arrived.
//
// Wire accounting: a data frame's size is fixed by its word count, so
// every rank computes each superstep's wire bytes from the same size
// matrix it reads the h-relation off, and after every Exchange each
// rank's ledger holds the run's wire traffic so far, the same on every
// rank. A run ends at its last Exchange; no frame follows it.
//
// Aborts: a local Machine.Cancel (or worker panic) poisons the session
// and broadcasts an ABORT frame to every peer; a lost connection aborts
// every session on both sides with ErrPeerLost.
type Session struct {
	mesh  *Mesh
	epoch uint64
	rank  int // this process's rank: its mesh rank
	p     int // the mesh's size
	used  bool

	step    uint64
	staging [][]uint64
	inbox   [][]uint64
	mySizes []uint32 // size vector scratch

	// mu guards the abort cause, the sent flag and the parked step
	// states; cond wakes the Exchange waiter when any of them changes.
	mu      sync.Mutex
	cond    sync.Cond
	abortE  error
	sent    bool // abort frames already broadcast
	pending map[uint64]*stepState

	// abortFlag is set, under mu, after abortE: a reader that sees it
	// set finds the cause recorded.
	abortFlag atomic.Bool

	// wordPool recycles []uint64 payload buffers: the decode path fills
	// inbox rows from it, and Exchange returns the previous superstep's
	// rows and SendOwned the staging cells it displaces. Safe because an
	// endpoint's Recv data is only guaranteed until its next Exchange.
	wordPool sync.Pool

	// wireHook, when non-nil, runs before each Exchange's sends with the
	// superstep; it may request a drop (sever all
	// connections), a stall (delay the outbound flush), a crash (hard
	// process exit), or a partition (sever + refuse reconnects for the
	// duration). The seam internal/faults' transport kinds compile onto.
	wireHook func(step uint64) (drop bool, stall time.Duration, crash bool, partition time.Duration)

	// ledger is the run's accounting. Its WireBytes is what every rank
	// wrote in data frames; it does not feed the logical volume, which
	// is counted in words.
	ledger Ledger
}

// stepState accumulates one superstep's inbound frames.
type stepState struct {
	got   int
	sizes [][]uint32 // per source rank: its full size vector
	words [][]uint64 // per source rank: the payload for this rank
}

// NewSession registers a run on the mesh. members must list every mesh
// rank in order, 0..p-1: a run spans the whole mesh. The session is the
// Transport to hand to bsp.NewMachineOver.
func (m *Mesh) NewSession(epoch uint64, members []int) (*Session, error) {
	whole := len(members) == m.p
	for i := 0; whole && i < m.p; i++ {
		whole = members[i] == i
	}
	if !whole {
		return nil, fmt.Errorf("transport: session members %v, want every rank of the %d-rank mesh in order", members, m.p)
	}
	s := &Session{
		mesh:    m,
		epoch:   epoch,
		rank:    m.rank,
		p:       m.p,
		staging: make([][]uint64, m.p),
		inbox:   make([][]uint64, m.p),
		mySizes: make([]uint32, m.p),
		pending: make(map[uint64]*stepState),
	}
	s.cond.L = &s.mu
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: mesh closed", ErrPeerLost)
	}
	if _, dup := m.sessions[epoch]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("transport: session epoch %d already registered", epoch)
	}
	m.sessions[epoch] = s
	var backlog []frame
	if q := m.orphans[epoch]; q != nil {
		backlog = q.frames
		delete(m.orphans, epoch)
	}
	m.mu.Unlock()
	for _, f := range backlog {
		s.deliver(f)
	}
	return s, nil
}

// Root returns the session itself as the run's Transport.
func (s *Session) Root() Transport { return s }

// SetWireHook installs the session's wire fault hook (see wireHook).
// Call before the run starts.
func (s *Session) SetWireHook(h func(step uint64) (drop bool, stall time.Duration, crash bool, partition time.Duration)) {
	s.wireHook = h
}

// getWords returns a pooled word slice of length n (contents arbitrary
// — every caller overwrites the full length before reading).
func (s *Session) getWords(n int) []uint64 {
	if v := s.wordPool.Get(); v != nil {
		ws := *(v.(*[]uint64))
		if cap(ws) >= n {
			return ws[:n]
		}
	}
	return make([]uint64, n)
}

// putWords recycles a word slice whose contents are dead.
func (s *Session) putWords(ws []uint64) {
	if cap(ws) == 0 {
		return
	}
	ws = ws[:0]
	s.wordPool.Put(&ws)
}

// abort poisons the session: the first cause is recorded, the waiters
// wake, and (when notifyPeers) every peer is sent an ABORT frame, best
// effort and unaccounted: a failed run reports no ledger. Remote aborts
// pass notifyPeers=false — the originator already told everyone.
func (s *Session) abort(err error, notifyPeers bool) {
	s.mu.Lock()
	if s.abortE == nil {
		s.abortE = err
	}
	first := !s.sent && notifyPeers
	if first {
		s.sent = true
	}
	s.abortFlag.Store(true)
	s.cond.Broadcast()
	s.mu.Unlock()
	if !first {
		return
	}
	payload := encodeAbort(errors.Is(err, ErrCancelled), errors.Is(err, ErrPeerLost), err.Error())
	buf := appendFrameHeader(make([]byte, 0, 4+frameHeaderLen+len(payload)), frameAbort, s.epoch, 0, s.rank)
	buf = append(buf, payload...)
	patchFrameLen(buf)
	for r := 0; r < s.p; r++ {
		if r == s.rank {
			continue
		}
		_ = s.mesh.sendFrame(r, buf)
	}
}

// deliver parks one inbound frame on the session's step state; an
// ABORT poisons the session. Runs on read-pump goroutines.
func (s *Session) deliver(f frame) {
	if f.kind == frameAbort {
		cancelled, peerLost, msg := decodeAbort(f.payload)
		f.release()
		s.abort(&RemoteAbort{Rank: f.src, Msg: msg, Cancelled: cancelled, PeerLost: peerLost}, false)
		return
	}
	src := f.src
	if src < 0 || src >= s.p || src == s.rank {
		f.release()
		s.abort(fmt.Errorf("%w: frame from rank %d not a peer of session %d", ErrPeerLost, src, s.epoch), true)
		return
	}
	switch f.kind {
	case frameData:
		sizes, words, err := decodeDataPayload(f.payload, s.p, s.rank, s.getWords)
		f.release()
		if err != nil {
			s.abort(fmt.Errorf("%w: rank %d: %v", ErrPeerLost, src, err), true)
			return
		}
		s.mu.Lock()
		st := s.stepAt(f.step)
		if st.sizes[src] == nil {
			st.got++
		}
		st.sizes[src] = sizes
		st.words[src] = words
		// Wake the barrier waiter only when its step is complete — each
		// earlier frame would otherwise cost a spurious wake/recheck/park
		// cycle on the Exchange goroutine.
		if st.got >= s.p-1 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	default:
		f.release()
	}
}

// stepAt returns a superstep's state, creating it on first touch. The
// caller holds s.mu.
func (s *Session) stepAt(step uint64) *stepState {
	st := s.pending[step]
	if st == nil {
		st = &stepState{sizes: make([][]uint32, s.p), words: make([][]uint64, s.p)}
		s.pending[step] = st
	}
	return st
}

// --- Endpoint ---

// Rank returns this process's rank.
func (s *Session) Rank() int { return s.rank }

// Send stages a copy of words for rank `to`.
func (s *Session) Send(to int, words []uint64) {
	if to < 0 || to >= s.p {
		panic(fmt.Sprintf("transport: send to rank %d of %d", to, s.p))
	}
	s.staging[to] = append(s.staging[to], words...)
}

// SendOwned stages words, adopting the slice when the staging cell is
// empty; the displaced empty cell goes back to the pool.
func (s *Session) SendOwned(to int, words []uint64) {
	if to < 0 || to >= s.p {
		panic(fmt.Sprintf("transport: send to rank %d of %d", to, s.p))
	}
	if len(s.staging[to]) == 0 {
		s.putWords(s.staging[to])
		s.staging[to] = words
		return
	}
	s.staging[to] = append(s.staging[to], words...)
}

// Recv returns the words delivered from rank src at the last Exchange.
func (s *Session) Recv(src int) []uint64 { return s.inbox[src] }

// Exchange is the superstep barrier over sockets: coalesce one data
// frame per peer (carrying the full size vector), then block until all
// p-1 peer frames for this step arrived. Every rank then computes the
// identical h-relation and wire bytes from the assembled size matrix.
func (s *Session) Exchange() error {
	if s.abortFlag.Load() {
		return s.Err()
	}
	p := s.p
	step := s.step

	if h := s.wireHook; h != nil {
		drop, stall, crash, part := h(step)
		if stall > 0 {
			time.Sleep(stall)
		}
		if crash {
			s.mesh.crash()
		}
		if part > 0 {
			s.mesh.Partition(part)
		}
		if drop {
			s.mesh.DropPeers()
		}
	}

	for d := 0; d < p; d++ {
		s.mySizes[d] = uint32(len(s.staging[d]))
	}
	// Serialize each destination's coalesced frame straight into a
	// pooled buffer, write it to that peer's socket on this goroutine,
	// and recycle the buffer once the kernel has it.
	head := dataHeadLen(p)
	for dst := 0; dst < p; dst++ {
		if dst == s.rank {
			continue
		}
		words := s.staging[dst]
		buf := frameBufGet(head + 8*len(words))[:0]
		buf = appendFrameHeader(buf, frameData, s.epoch, step, s.rank)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		for _, sz := range s.mySizes {
			buf = binary.LittleEndian.AppendUint32(buf, sz)
		}
		buf = appendWords(buf, words)
		patchFrameLen(buf)
		err := s.mesh.sendFrame(dst, buf)
		frameBufPut(buf)
		if err != nil {
			s.abort(err, true)
			return s.Err()
		}
	}

	// Barrier: wait for every peer's frame for this step.
	s.mu.Lock()
	st := s.stepAt(step)
	for st.got < p-1 {
		if err := s.abortE; err != nil {
			s.mu.Unlock()
			return err
		}
		s.cond.Wait()
	}
	delete(s.pending, step)
	s.mu.Unlock()

	// Deliver: peers' payloads plus the self-staged words; the displaced
	// self buffer becomes the next superstep's self staging cell, and
	// the previous superstep's peer rows (whose contents the contract
	// says no one may read past this point) recycle into the word pool
	// that the decode path draws from.
	spare := s.inbox[s.rank]
	for src := 0; src < p; src++ {
		if src == s.rank {
			s.inbox[src] = s.staging[src]
		} else {
			s.putWords(s.inbox[src])
			s.inbox[src] = st.words[src]
		}
	}
	for dst := 0; dst < p; dst++ {
		if dst == s.rank {
			s.staging[dst] = spare[:0]
		} else {
			s.staging[dst] = s.staging[dst][:0]
		}
	}

	// Account the h-relation from the full size matrix — byte-identical
	// to the in-process finalizer: max over destinations of the column
	// sum and over sources of the row sum. The wire bytes of the step's
	// p(p-1) data frames read off the same matrix: each frame's head
	// plus 8 bytes per off-diagonal word.
	var h uint64
	wire := uint64(p * (p - 1) * head)
	for dst := 0; dst < p; dst++ {
		var recv uint64
		for src := 0; src < p; src++ {
			if src == s.rank {
				recv += uint64(s.mySizes[dst])
			} else {
				recv += uint64(st.sizes[src][dst])
			}
		}
		if recv > h {
			h = recv
		}
	}
	for src := 0; src < p; src++ {
		sizes := s.mySizes
		if src != s.rank {
			sizes = st.sizes[src]
		}
		var sent uint64
		for _, sz := range sizes {
			sent += uint64(sz)
		}
		if sent > h {
			h = sent
		}
		wire += 8 * (sent - uint64(sizes[src]))
	}
	s.ledger.WireBytes += wire
	s.ledger.Supersteps++
	s.ledger.CommVolume += h
	s.ledger.HRelations = append(s.ledger.HRelations, h)
	s.step = step + 1
	return nil
}

// --- Transport ---

// Kind returns KindTCP.
func (s *Session) Kind() string { return KindTCP }

// Size returns the session's rank count: the mesh's.
func (s *Session) Size() int { return s.p }

// LocalRanks returns the single rank this process hosts.
func (s *Session) LocalRanks() []int { return []int{s.rank} }

// Endpoint returns this process's endpoint; the session is its own
// endpoint.
func (s *Session) Endpoint(rank int) Endpoint {
	if rank != s.rank {
		panic(fmt.Sprintf("transport: rank %d not hosted by this process (local rank %d)", rank, s.rank))
	}
	return s
}

// AbortFlag returns the session's abort flag.
func (s *Session) AbortFlag() *atomic.Bool { return &s.abortFlag }

// Abort poisons the session and notifies every peer process.
func (s *Session) Abort(err error) { s.abort(err, true) }

// Err returns the session's abort cause, or nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abortE
}

// Reset burns the session's single run; a second Reset is an error
// (sessions are per-job, the serving layer never pools them).
func (s *Session) Reset() error {
	if s.used {
		return fmt.Errorf("transport: tcp fabric is single-run (epoch %d)", s.epoch)
	}
	s.used = true
	return nil
}

// Ledger returns the run's accounting, valid after every Exchange: its
// wire-byte count is the whole run's through the last superstep.
func (s *Session) Ledger() Ledger {
	out := s.ledger
	out.HRelations = append([]uint64(nil), s.ledger.HRelations...)
	return out
}

// Close deregisters the session from its mesh. Idempotent; live waiters
// are aborted first.
func (s *Session) Close() error {
	s.abort(fmt.Errorf("%w: session closed", ErrPeerLost), false)
	m := s.mesh
	m.mu.Lock()
	if m.sessions[s.epoch] == s {
		delete(m.sessions, s.epoch)
	}
	m.mu.Unlock()
	return nil
}
