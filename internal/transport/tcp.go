package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
)

// The TCP fabric: each mesh rank is a separate worker process holding
// one persistent framed connection to every peer (full mesh). On top of
// the mesh, a Session scopes one BSP run (keyed by epoch), and its one
// tcpGroup implements Transport+Endpoint for the run's communicator.
//
// Superstep delivery: Exchange coalesces everything staged for a peer
// into one data frame carrying the sender's full per-destination size
// vector, so every member reconstructs the same p×p size matrix and
// accounts the identical h-relation the in-process finalizer would.
// Read pumps (one goroutine per connection) decode inbound frames and
// park them on the session group's step state; Exchange blocks on a
// condition variable until all gp-1 peer frames for its step arrived.
//
// Aborts ride the PR 4 protocol: a local Machine.Cancel (or worker
// panic) poisons the session and broadcasts an ABORT frame to every
// peer; a lost connection aborts every session on both sides with
// ErrPeerLost. End of run, FinishRun exchanges LEDGER frames so every
// process reports the run's total wire traffic.
//
// Self-healing (DESIGN.md §4i): the mesh outlives individual
// connections. Each peer rank is a slot whose connection can be
// replaced — a maintenance loop sends per-peer heartbeats and runs a
// phi-accrual failure detector (silent peers are severed once phi
// crosses the threshold), the accept loop stays open for the mesh's
// lifetime so a reincarnated peer (strictly larger incarnation number)
// or a healed partition (same incarnation) can drain-and-reconnect its
// slot, and surviving higher ranks redial lost lower ranks — the same
// orientation as initial setup (higher dials lower), so reconnects
// never cross. Sessions in flight when a connection dies abort with
// ErrPeerLost; the mesh itself stays up and heals.

// MeshConfig configures one worker process's position in the mesh.
type MeshConfig struct {
	// Rank is this process's mesh rank in [0, len(Addrs)).
	Rank int
	// Addrs lists every rank's listen address, index = rank.
	Addrs []string
	// MachineEpoch identifies the deployment generation; handshakes
	// reject peers from a different epoch.
	MachineEpoch uint64
	// Listener, when non-nil, is used instead of listening on
	// Addrs[Rank] (tests pass pre-bound 127.0.0.1:0 listeners).
	Listener net.Listener
	// DialTimeout bounds connection establishment, covering peer-process
	// startup skew (default 15s).
	DialTimeout time.Duration
	// Control receives out-of-band job-control frames (shard worker
	// coordination). It runs on a read-pump goroutine and must not block.
	Control func(src int, epoch uint64, payload []byte)
	// Incarnation is this process's monotonic incarnation number for its
	// rank (default 1). A supervisor respawning a crashed worker bumps
	// it; peers use it to tell a legitimate reincarnation from a stale
	// duplicate dialer.
	Incarnation uint64
	// HeartbeatInterval paces the liveness beacons and the failure
	// detector's checks (default 500ms).
	HeartbeatInterval time.Duration
	// PhiThreshold is the phi-accrual suspicion level at which a silent
	// peer's connection is severed (default 8, ≈2.4 quiet heartbeat
	// intervals at steady state).
	PhiThreshold float64
	// OnPeerUp, when non-nil, runs after a peer's connection is
	// (re)established. incarnation is the peer's handshaken incarnation
	// for accepted connections and 0 for dialed ones (the dial preamble
	// is one-way). Runs off the mesh lock; must not block for long.
	OnPeerUp func(rank int, incarnation uint64)
	// OnPeerDown, when non-nil, runs after a peer's current connection
	// is lost. Runs off the mesh lock; must not block for long.
	OnPeerDown func(rank int)
	// CrashFn is what the crash wire fault executes (default
	// os.Exit(CrashExitCode)). In-process tests override it.
	CrashFn func()
	// DisableCodecs restricts this process to the raw payload codec:
	// it advertises only raw in handshakes and never encodes outbound
	// frames. Benchmark baselines and wire-format debugging use it; the
	// mesh interoperates freely with codec-enabled peers (codec choice
	// is per connection direction, negotiated to the intersection).
	DisableCodecs bool
}

// CrashExitCode is the exit status of a fault-injected hard crash
// (`crash@rank:step`). Supervisors use it to tell an injected chaos
// crash (respawn clean, without the fault spec) from an organic one.
const CrashExitCode = 86

// Mesh is a worker process's set of persistent peer connections. One
// mesh serves many sessions (jobs) over its lifetime, and each peer
// slot's connection can die and be replaced without tearing the mesh
// down.
type Mesh struct {
	rank   int
	p      int
	epoch  uint64
	inc    uint64
	codecs byte // payload codecs this process is willing to send/receive

	ln      net.Listener
	control func(src int, epoch uint64, payload []byte)
	addrs   []string

	hbInterval time.Duration
	phiThresh  float64
	onPeerUp   func(rank int, incarnation uint64)
	onPeerDown func(rank int)
	crashFn    func()

	mu        sync.Mutex
	peers     []*peerSlot
	sessions  map[uint64]*Session
	orphans   map[uint64][]frame
	closed    bool
	partUntil time.Time          // injected partition deadline
	hbFilter  func(dst int) bool // test hook: false = suppress beacons to dst

	stop  chan struct{}
	pumps sync.WaitGroup
	loops sync.WaitGroup
}

// peerSlot is the durable per-rank state; the connection inside it is
// replaceable. All fields are guarded by the mesh mutex except the
// detector, which has its own.
type peerSlot struct {
	rank        int
	cur         *peerConn // nil while the peer is down
	incarnation uint64    // largest handshaken incarnation seen
	det         *phiDetector
	dialing     bool // a redial attempt is in flight
}

// maxOrphans bounds frames buffered for a not-yet-registered session;
// beyond it the sender is protocol-broken and the frames are
// dropped (the eventual barrier wait surfaces the loss as a stall that
// the job deadline converts into a cancel).
const maxOrphans = 1 << 16

// NewMesh connects this process into the full mesh: it listens at
// Addrs[Rank], dials every lower rank (with retry, so start order does
// not matter), accepts every higher rank, and returns once all p-1
// connections are up and handshaken.
//
// A reincarnated worker joins through exactly the same flow: its dials
// to lower ranks land on their still-open accept loops, and surviving
// higher ranks redial it from their maintenance loops within about one
// heartbeat interval.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	p := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("transport: mesh rank %d of %d", cfg.Rank, p)
	}
	ln := cfg.Listener
	if ln == nil && p > 1 {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Rank], err)
		}
	}
	inc := cfg.Incarnation
	if inc == 0 {
		inc = 1
	}
	hb := cfg.HeartbeatInterval
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	phi := cfg.PhiThreshold
	if phi <= 0 {
		phi = defaultPhiThreshold
	}
	codecs := codecMaskAll
	if cfg.DisableCodecs {
		codecs = codecMaskRaw
	}
	m := &Mesh{
		rank:       cfg.Rank,
		p:          p,
		epoch:      cfg.MachineEpoch,
		inc:        inc,
		codecs:     codecs,
		ln:         ln,
		control:    cfg.Control,
		addrs:      append([]string(nil), cfg.Addrs...),
		hbInterval: hb,
		phiThresh:  phi,
		onPeerUp:   cfg.OnPeerUp,
		onPeerDown: cfg.OnPeerDown,
		crashFn:    cfg.CrashFn,
		peers:      make([]*peerSlot, p),
		sessions:   make(map[uint64]*Session),
		orphans:    make(map[uint64][]frame),
		stop:       make(chan struct{}),
	}
	for j := 0; j < p; j++ {
		if j != m.rank {
			m.peers[j] = &peerSlot{rank: j}
		}
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	deadline := time.Now().Add(timeout)

	accepted := make(chan error, 1)
	if ln != nil {
		go m.acceptLoop(accepted)
	}
	// Dial every lower rank; they are accepting already or will be soon.
	retry := backoff.New(dialBackoffBase, dialBackoffCap, int64(m.rank))
	for j := 0; j < m.rank; j++ {
		conn, err := dialRetry(cfg.Addrs[j], deadline, retry)
		var peerCodecs byte
		if err == nil {
			peerCodecs, err = m.dialHandshake(conn, deadline)
		}
		if err != nil {
			if conn != nil {
				conn.Close()
			}
			m.Close()
			return nil, fmt.Errorf("transport: dial rank %d (%s): %w", j, cfg.Addrs[j], err)
		}
		m.admitPeer(j, 0, conn, peerCodecs)
	}
	// Wait for every higher rank to dial in (at first start they dial on
	// their own; at rejoin the survivors' maintenance loops redial us).
	for {
		m.mu.Lock()
		missing := 0
		for j := m.rank + 1; j < p; j++ {
			if m.peers[j].cur == nil {
				missing++
			}
		}
		m.mu.Unlock()
		if missing == 0 {
			break
		}
		select {
		case err := <-accepted:
			if err != nil {
				m.Close()
				return nil, err
			}
		case <-time.After(time.Until(deadline)):
			m.Close()
			return nil, fmt.Errorf("%w: %d higher rank(s) never dialed in", ErrPeerLost, missing)
		}
	}
	if p > 1 {
		m.loops.Add(1)
		go m.maintain()
	}
	return m, nil
}

// dialHandshake runs the dialer's half of the wire handshake: send the
// preamble, read back the accepter's ack to learn its codec support.
func (m *Mesh) dialHandshake(conn net.Conn, deadline time.Time) (peerCodecs byte, err error) {
	if err := writePreamble(conn, m.rank, m.epoch, m.inc, m.codecs); err != nil {
		return 0, err
	}
	_ = conn.SetReadDeadline(deadline)
	peerCodecs, err = readAck(conn)
	_ = conn.SetReadDeadline(time.Time{})
	return peerCodecs, err
}

// A peer that is not listening yet is redialled on the shared backoff
// schedule, from 10ms up to half a second between tries.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffCap  = 500 * time.Millisecond
)

func dialRetry(addr string, deadline time.Time, retry *backoff.Jitter) (net.Conn, error) {
	for attempt := 0; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		wait := retry.Delay(attempt)
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("%w: %v", ErrPeerLost, err)
		}
		time.Sleep(wait)
	}
}

// acceptLoop admits higher-rank dialers for the mesh's whole lifetime
// (initial setup and every later rejoin); each handshake result is
// signalled through ch, which only NewMesh's setup wait reads.
func (m *Mesh) acceptLoop(ch chan<- error) {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			m.mu.Lock()
			closed := m.closed
			m.mu.Unlock()
			if !closed {
				select {
				case ch <- fmt.Errorf("transport: accept: %w", err):
				default:
				}
			}
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		rank, inc, peerCodecs, err := readPreamble(conn, m.epoch)
		_ = conn.SetReadDeadline(time.Time{})
		if err == nil && (rank <= m.rank || rank >= m.p) {
			err = fmt.Errorf("%w: unexpected dialer rank %d", ErrPeerLost, rank)
		}
		if err == nil {
			// Pre-check admission before acking so a doomed dialer (stale
			// incarnation, partition in force) sees a silent close, never
			// an ack; admitPeer re-checks authoritatively under the lock.
			m.mu.Lock()
			sl := m.peers[rank]
			reject := m.closed || sl == nil || time.Now().Before(m.partUntil) || inc < sl.incarnation
			m.mu.Unlock()
			if reject {
				conn.Close()
				continue
			}
			err = writeAck(conn, m.codecs)
		}
		if err != nil {
			conn.Close()
			select {
			case ch <- err:
			default:
			}
			continue
		}
		m.admitPeer(rank, inc, conn, peerCodecs)
		select {
		case ch <- nil:
		default:
		}
	}
}

// admitPeer installs a handshaken connection into its rank's slot and
// starts its read pump. inc is the dialer's handshaken incarnation for
// accepted connections and 0 for connections this process dialed (the
// preamble is one-way). A dialer presenting an incarnation below the
// slot's high-water mark is a stale duplicate and is rejected; an
// equal incarnation is a reconnect after a severed connection (healed
// partition) and replaces the old one; a higher incarnation is a
// reincarnated peer — the old connection is drained (closed) and the
// slot rebound.
func (m *Mesh) admitPeer(rank int, inc uint64, conn net.Conn, peerCodecs byte) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // supersteps are latency-bound, not throughput-bound
	}
	// Send with codecs both sides support; raw is always in the set.
	pc := newPeerConn(rank, conn, peerCodecs&m.codecs)
	m.mu.Lock()
	sl := m.peers[rank]
	if m.closed || sl == nil || time.Now().Before(m.partUntil) || inc < sl.incarnation {
		m.mu.Unlock()
		conn.Close()
		return
	}
	old := sl.cur
	sl.cur = pc
	if inc > sl.incarnation {
		sl.incarnation = inc
	}
	det := newPhiDetector(m.hbInterval)
	sl.det = det
	up := m.onPeerUp
	m.mu.Unlock()
	if old != nil {
		old.kill()
	}
	m.pumps.Add(1)
	go m.readPump(pc, det)
	if up != nil {
		up(rank, inc)
	}
}

// Rank returns this process's mesh rank.
func (m *Mesh) Rank() int { return m.rank }

// Addrs returns the mesh's rank-indexed address list (a copy) — what a
// replacement process for a dead rank needs to rejoin.
func (m *Mesh) Addrs() []string { return append([]string(nil), m.addrs...) }

// Size returns the mesh's process count.
func (m *Mesh) Size() int { return m.p }

// readPump decodes inbound frames from one peer until the connection
// dies, routing each to its session (or the orphan buffer). Every
// inbound frame feeds the slot's failure detector as proof of life.
func (m *Mesh) readPump(pc *peerConn, det *phiDetector) {
	defer m.pumps.Done()
	br := bufio.NewReaderSize(pc.conn, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			pc.kill()
			m.connLost(pc, err)
			return
		}
		switch f.kind {
		case frameHeartbeat:
			det.observe(time.Now())
			f.release()
			continue
		case frameControl:
			det.touch(time.Now())
			if h := m.control; h != nil {
				// Control handlers consume the payload synchronously
				// (the shard tier unmarshals it); nothing retains it.
				h(f.src, f.epoch, f.payload)
			}
			f.release()
			continue
		}
		det.touch(time.Now())
		m.mu.Lock()
		s := m.sessions[f.epoch]
		if s == nil {
			if !m.closed && len(m.orphans[f.epoch]) < maxOrphans {
				m.orphans[f.epoch] = append(m.orphans[f.epoch], f)
			} else {
				f.release()
			}
			m.mu.Unlock()
			continue
		}
		m.mu.Unlock()
		s.deliver(f)
	}
}

// connLost runs when a read pump exits: if the dead connection is
// still its slot's current one, the peer is marked down, every live
// session aborts with ErrPeerLost, and OnPeerDown fires. A connection
// already drained out of its slot (replaced by a rejoin) dies silently.
func (m *Mesh) connLost(pc *peerConn, cause error) {
	m.mu.Lock()
	sl := m.peers[pc.rank]
	isCur := sl != nil && sl.cur == pc
	if isCur {
		sl.cur = nil
	}
	closed := m.closed
	down := m.onPeerDown
	m.mu.Unlock()
	if !isCur || closed {
		return
	}
	m.peerLost(pc.rank, cause)
	if down != nil {
		down(pc.rank)
	}
}

// peerLost aborts every live session when a connection dies.
func (m *Mesh) peerLost(rank int, cause error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	err := fmt.Errorf("%w: rank %d: %v", ErrPeerLost, rank, cause)
	for _, s := range sessions {
		s.abort(err, true)
	}
}

// peer returns the live connection to a mesh rank.
func (m *Mesh) peer(dst int) (*peerConn, error) {
	m.mu.Lock()
	var pc *peerConn
	if dst >= 0 && dst < len(m.peers) {
		if sl := m.peers[dst]; sl != nil {
			pc = sl.cur
		}
	}
	m.mu.Unlock()
	if pc == nil {
		return nil, fmt.Errorf("%w: no connection to rank %d", ErrPeerLost, dst)
	}
	return pc, nil
}

// sendFrame writes one frame to a mesh peer, returning the bytes
// written.
func (m *Mesh) sendFrame(dst int, buf []byte) (int, error) {
	pc, err := m.peer(dst)
	if err != nil {
		return 0, err
	}
	if err := pc.send(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// SendControl delivers an out-of-band job-control payload to a peer
// (or, with dst == own rank, loops it back through the handler).
func (m *Mesh) SendControl(dst int, epoch uint64, payload []byte) error {
	if dst == m.rank {
		if h := m.control; h != nil {
			h(m.rank, epoch, payload)
		}
		return nil
	}
	buf := appendFrameHeader(make([]byte, 0, 4+frameHeaderLen+len(payload)), frameControl, epoch, 0, m.rank)
	buf = append(buf, payload...)
	patchFrameLen(buf)
	_, err := m.sendFrame(dst, buf)
	return err
}

// DropPeers severs every peer connection — the "drop" wire fault. Both
// sides' read pumps fail, aborting live sessions with ErrPeerLost. The
// maintenance loops on both sides then heal the mesh within about one
// heartbeat interval (unless a partition is in force).
func (m *Mesh) DropPeers() {
	m.mu.Lock()
	conns := make([]*peerConn, 0, len(m.peers))
	for _, sl := range m.peers {
		if sl != nil && sl.cur != nil {
			conns = append(conns, sl.cur)
		}
	}
	m.mu.Unlock()
	for _, pc := range conns {
		pc.kill()
	}
}

// Partition simulates a network partition of this process for d: every
// connection is severed and, until the deadline passes, inbound
// handshakes are rejected and outbound redials suppressed. After the
// deadline the mesh heals through the ordinary rejoin machinery. The
// seam the `partition@rank:step:dur` fault kind compiles onto.
func (m *Mesh) Partition(d time.Duration) {
	m.mu.Lock()
	if until := time.Now().Add(d); until.After(m.partUntil) {
		m.partUntil = until
	}
	m.mu.Unlock()
	m.DropPeers()
}

// maintain is the mesh's self-healing loop: every heartbeat interval it
// beacons each live peer, severs peers whose phi-accrual suspicion
// crossed the threshold, and redials lost lower ranks (the same
// higher-dials-lower orientation as initial setup, so reconnects never
// cross).
func (m *Mesh) maintain() {
	defer m.loops.Done()
	t := time.NewTicker(m.hbInterval)
	defer t.Stop()
	buf := appendFrameHeader(make([]byte, 0, 4+frameHeaderLen), frameHeartbeat, 0, 0, m.rank)
	patchFrameLen(buf)
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		type livePeer struct {
			pc  *peerConn
			det *phiDetector
		}
		var live []livePeer
		var redial []int
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		part := now.Before(m.partUntil)
		filter := m.hbFilter
		for r, sl := range m.peers {
			if sl == nil {
				continue
			}
			switch {
			case sl.cur != nil:
				live = append(live, livePeer{sl.cur, sl.det})
			case r < m.rank && !part && !sl.dialing:
				sl.dialing = true
				redial = append(redial, r)
			}
		}
		m.mu.Unlock()
		for _, lp := range live {
			if lp.det.phi(now) > m.phiThresh {
				// Silent too long: sever, so the read pump runs the
				// ErrPeerLost path and the redial machinery takes over.
				lp.pc.kill()
				continue
			}
			if filter != nil && !filter(lp.pc.rank) {
				continue
			}
			// One shared read-only beacon buffer for every peer, written
			// off this loop so a stalled socket never delays the detector.
			m.pumps.Add(1)
			go func(pc *peerConn) {
				defer m.pumps.Done()
				pc.beacon(buf)
			}(lp.pc)
		}
		for _, r := range redial {
			go m.redial(r)
		}
	}
}

// redial attempts one reconnect to a lost lower rank.
func (m *Mesh) redial(rank int) {
	defer func() {
		m.mu.Lock()
		if sl := m.peers[rank]; sl != nil {
			sl.dialing = false
		}
		m.mu.Unlock()
	}()
	timeout := 4 * m.hbInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	conn, err := net.DialTimeout("tcp", m.addrs[rank], timeout)
	if err != nil {
		return
	}
	peerCodecs, err := m.dialHandshake(conn, time.Now().Add(timeout))
	if err != nil {
		conn.Close()
		return
	}
	m.admitPeer(rank, 0, conn, peerCodecs)
}

// crash runs the configured crash action — the `crash@rank:step` fault.
func (m *Mesh) crash() {
	if m.crashFn != nil {
		m.crashFn()
		return
	}
	os.Exit(CrashExitCode)
}

// Incarnation returns this process's incarnation number.
func (m *Mesh) Incarnation() uint64 { return m.inc }

// PeerUp reports whether the connection to rank is currently live (own
// rank: always true).
func (m *Mesh) PeerUp(rank int) bool {
	if rank == m.rank {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank < 0 || rank >= m.p || m.peers[rank] == nil {
		return false
	}
	cur := m.peers[rank].cur
	return cur != nil && !cur.dead.Load()
}

// PeersUp returns how many of the p-1 peer connections are live.
func (m *Mesh) PeersUp() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	up := 0
	for _, sl := range m.peers {
		if sl != nil && sl.cur != nil && !sl.cur.dead.Load() {
			up++
		}
	}
	return up
}

// PeerIncarnation returns the largest incarnation handshaken from rank
// (0 when the peer has only ever been dialed, never accepted).
func (m *Mesh) PeerIncarnation(rank int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank < 0 || rank >= m.p || m.peers[rank] == nil {
		return 0
	}
	return m.peers[rank].incarnation
}

// SetHeartbeatFilter installs a test hook suppressing outbound beacons
// to ranks the filter rejects — the way tests starve the phi detector
// without killing the TCP connection.
func (m *Mesh) SetHeartbeatFilter(f func(dst int) bool) {
	m.mu.Lock()
	m.hbFilter = f
	m.mu.Unlock()
}

// Close tears the mesh down: maintenance loop, listener, connections,
// and sessions.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.stop)
	conns := make([]*peerConn, 0, len(m.peers))
	for _, sl := range m.peers {
		if sl != nil && sl.cur != nil {
			conns = append(conns, sl.cur)
		}
	}
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.abort(fmt.Errorf("%w: mesh closed", ErrPeerLost), false)
	}
	if m.ln != nil {
		m.ln.Close()
	}
	for _, pc := range conns {
		pc.kill()
	}
	m.loops.Wait()
	m.pumps.Wait()
	return nil
}

// Session scopes one BSP run (one job) on a mesh, keyed by epoch. It
// owns the run's group, abort state, and wire-byte count.
type Session struct {
	mesh  *Mesh
	epoch uint64

	mu     sync.Mutex
	abortE error
	sent   bool // abort frames already broadcast

	abortFlag atomic.Bool
	// wireBytes counts what this process actually wrote for the session;
	// wireRawBytes counts what the same frames would have cost had every
	// payload gone out under the raw codec. Their difference is the
	// codec's savings (the camc_wire_saved_bytes_total metric); neither
	// feeds the ledger's logical volume, which is counted in words.
	wireBytes    atomic.Uint64
	wireRawBytes atomic.Uint64

	// wordPool recycles []uint64 payload buffers session-wide: Buffer
	// hands them to kernels, the decode path fills inbox rows from them,
	// and Exchange recycles the previous superstep's rows. Safe because
	// an endpoint's Recv data is only guaranteed until its next Exchange
	// and kernels never re-stage a received slice as owned (they stage
	// into Buffer slices).
	wordPool sync.Pool

	// wireHook, when non-nil, runs before each Exchange's sends with the
	// superstep; it may request a drop (sever all
	// connections), a stall (delay the outbound flush), a crash (hard
	// process exit), or a partition (sever + refuse reconnects for the
	// duration). The seam internal/faults' transport kinds compile onto.
	wireHook func(step uint64) (drop bool, stall time.Duration, crash bool, partition time.Duration)

	root *tcpGroup
}

// NewSession registers a run on the mesh. members lists the mesh ranks
// participating in the run, ascending; this process's rank
// must be among them. The returned session's Root() group is the
// Transport to hand to bsp.NewMachineOver.
func (m *Mesh) NewSession(epoch uint64, members []int) (*Session, error) {
	localRank := -1
	for i, r := range members {
		if r == m.rank {
			localRank = i
		}
		if r < 0 || r >= m.p {
			return nil, fmt.Errorf("transport: session member rank %d of %d", r, m.p)
		}
	}
	if localRank < 0 {
		return nil, fmt.Errorf("transport: rank %d not in session members %v", m.rank, members)
	}
	s := &Session{mesh: m, epoch: epoch}
	s.root = newTCPGroup(s, append([]int(nil), members...), localRank)
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
	backlog := m.orphans[epoch]
	delete(m.orphans, epoch)
	m.mu.Unlock()
	for _, f := range backlog {
		s.deliver(f)
	}
	return s, nil
}

// Root returns the session's group — the run's Transport.
func (s *Session) Root() Transport { return s.root }

// SetWireHook installs the session's wire fault hook (see wireHook).
// Call before the run starts.
func (s *Session) SetWireHook(h func(step uint64) (drop bool, stall time.Duration, crash bool, partition time.Duration)) {
	s.wireHook = h
}

// WireBytes returns the bytes this process has written for the session.
func (s *Session) WireBytes() uint64 { return s.wireBytes.Load() }

// WireRawBytes returns what this process's writes would have cost
// under the raw codec — the pre-compression equivalent of WireBytes.
func (s *Session) WireRawBytes() uint64 { return s.wireRawBytes.Load() }

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

// Err returns the session's abort cause, or nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abortE
}

// abort poisons the session: the first cause is recorded, the group's
// waiters wake, and (when notifyPeers) every peer of the run is sent an
// ABORT frame. Remote aborts pass notifyPeers=false — the
// originator already told everyone.
func (s *Session) abort(err error, notifyPeers bool) {
	s.mu.Lock()
	if s.abortE == nil {
		s.abortE = err
	}
	first := !s.sent && notifyPeers
	if first {
		s.sent = true
	}
	s.mu.Unlock()
	s.abortFlag.Store(true)
	g := s.root
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
	if !first {
		return
	}
	payload := encodeAbort(errors.Is(err, ErrCancelled), errors.Is(err, ErrPeerLost), err.Error())
	buf := appendFrameHeader(make([]byte, 0, 4+frameHeaderLen+len(payload)), frameAbort, s.epoch, 0, s.mesh.rank)
	buf = append(buf, payload...)
	patchFrameLen(buf)
	for i, r := range s.root.members {
		if i == s.root.rank {
			continue
		}
		if n, err2 := s.mesh.sendFrame(r, buf); err2 == nil {
			s.wireBytes.Add(uint64(n))
			s.wireRawBytes.Add(uint64(n))
		}
	}
}

// deliver handles one inbound frame: an ABORT poisons the session,
// anything else goes to the session's group.
func (s *Session) deliver(f frame) {
	if f.kind == frameAbort {
		cancelled, peerLost, msg := decodeAbort(f.payload)
		f.release()
		s.abort(&RemoteAbort{Rank: f.src, Msg: msg, Cancelled: cancelled, PeerLost: peerLost}, false)
		return
	}
	s.root.deliver(f)
}

// stepState accumulates one superstep's inbound frames for a group.
type stepState struct {
	got   int
	sizes [][]uint32 // per source group rank: its full size vector
	words [][]uint64 // per source group rank: the payload for this rank
}

// wireCounts is one process's wire traffic for a run, as its LEDGER
// frame reports it.
type wireCounts struct {
	bytes, raw uint64
}

// tcpGroup is a session's communicator over the mesh. It implements both
// Transport and Endpoint — a worker process hosts exactly one of its
// ranks.
type tcpGroup struct {
	sess    *Session
	members []int // mesh ranks, by group rank
	rank    int   // this process's group rank
	used    bool  // Reset burns it: socket groups are single-run

	step    uint64
	staging [][]uint64
	inbox   [][]uint64
	mySizes []uint32 // size vector scratch

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[uint64]*stepState
	wireIn  map[int]wireCounts

	ledger Ledger
}

func newTCPGroup(s *Session, members []int, rank int) *tcpGroup {
	g := &tcpGroup{
		sess:    s,
		members: members,
		rank:    rank,
		staging: make([][]uint64, len(members)),
		inbox:   make([][]uint64, len(members)),
		mySizes: make([]uint32, len(members)),
		pending: make(map[uint64]*stepState),
		wireIn:  make(map[int]wireCounts),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// groupRankOf translates a mesh rank to this group's rank, or -1.
func (g *tcpGroup) groupRankOf(meshRank int) int {
	for i, r := range g.members {
		if r == meshRank {
			return i
		}
	}
	return -1
}

// deliver parks one inbound frame on the group's step (or ledger) state.
// Runs on read-pump goroutines.
func (g *tcpGroup) deliver(f frame) {
	src := g.groupRankOf(f.src)
	if src < 0 || src == g.rank {
		f.release()
		g.sess.abort(fmt.Errorf("%w: frame from rank %d not a peer of session %d", ErrPeerLost, f.src, g.sess.epoch), true)
		return
	}
	switch f.kind {
	case frameData:
		sizes, words, err := decodeDataPayload(f.payload, len(g.members), g.rank, g.sess.getWords)
		f.release()
		if err != nil {
			g.sess.abort(fmt.Errorf("%w: rank %d: %v", ErrPeerLost, f.src, err), true)
			return
		}
		g.mu.Lock()
		st := g.pending[f.step]
		if st == nil {
			st = &stepState{sizes: make([][]uint32, len(g.members)), words: make([][]uint64, len(g.members))}
			g.pending[f.step] = st
		}
		if st.sizes[src] == nil {
			st.got++
		}
		st.sizes[src] = sizes
		st.words[src] = words
		// Wake the barrier waiter only when its step is complete — each
		// earlier frame would otherwise cost a spurious wake/recheck/park
		// cycle on the Exchange goroutine.
		if st.got >= len(g.members)-1 {
			g.cond.Broadcast()
		}
		g.mu.Unlock()
	case frameLedger:
		wb, wrb, err := decodeLedger(f.payload)
		f.release()
		if err != nil {
			g.sess.abort(fmt.Errorf("%w: rank %d: %v", ErrPeerLost, f.src, err), true)
			return
		}
		g.mu.Lock()
		g.wireIn[src] = wireCounts{bytes: wb, raw: wrb}
		g.cond.Broadcast()
		g.mu.Unlock()
	default:
		f.release()
	}
}

// --- Endpoint ---

// Rank returns this process's rank in the group.
func (g *tcpGroup) Rank() int { return g.rank }

// Send stages a copy of words for group rank `to`.
func (g *tcpGroup) Send(to int, words []uint64) {
	if to < 0 || to >= len(g.staging) {
		panic(fmt.Sprintf("transport: send to rank %d of %d", to, len(g.staging)))
	}
	g.staging[to] = append(g.staging[to], words...)
}

// SendOwned stages words, adopting the slice when the staging cell is
// empty (the adopted slice re-enters the session pool once its contents
// have been serialized and delivered); the displaced empty cell goes
// back to the pool.
func (g *tcpGroup) SendOwned(to int, words []uint64) {
	if to < 0 || to >= len(g.staging) {
		panic(fmt.Sprintf("transport: send to rank %d of %d", to, len(g.staging)))
	}
	if len(g.staging[to]) == 0 {
		if old := g.staging[to]; cap(old) > 0 {
			g.sess.putWords(old)
		}
		g.staging[to] = words
		return
	}
	g.staging[to] = append(g.staging[to], words...)
}

// Recv returns the words delivered from group rank src at the last
// Exchange.
func (g *tcpGroup) Recv(src int) []uint64 { return g.inbox[src] }

// Buffer returns a word slice of length n from the session's pool (the
// contents are arbitrary, exactly like a fresh make's would be after
// the caller fills it — and every caller fills it).
func (g *tcpGroup) Buffer(n int) []uint64 { return g.sess.getWords(n) }

// Exchange is the superstep barrier over sockets: coalesce one data
// frame per peer (carrying the full size vector), then block until all
// gp-1 peer frames for this step arrived. Every member then computes
// the identical h-relation from the assembled size matrix.
func (g *tcpGroup) Exchange() error {
	s := g.sess
	if s.abortFlag.Load() {
		return g.waitErr()
	}
	gp := len(g.members)
	step := g.step

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

	for d := 0; d < gp; d++ {
		g.mySizes[d] = uint32(len(g.staging[d]))
	}
	// Serialize each destination's coalesced frame straight into a
	// pooled buffer, write it to that peer's socket on this goroutine,
	// and recycle the buffer once the kernel has it.
	for dst := 0; dst < gp; dst++ {
		if dst == g.rank {
			continue
		}
		pc, err := s.mesh.peer(g.members[dst])
		if err != nil {
			s.abort(err, true)
			return g.waitErr()
		}
		words := g.staging[dst]
		head := 4 + frameHeaderLen + 4 + 4*gp + 1
		buf := frameBufGet(head + 8*len(words))[:0]
		buf = appendFrameHeader(buf, frameData, s.epoch, step, s.mesh.rank)
		buf = appendUint32(buf, uint32(gp))
		for _, sz := range g.mySizes {
			buf = appendUint32(buf, sz)
		}
		buf = appendEncodedPayload(buf, words, pc.codecs)
		patchFrameLen(buf)
		n := len(buf)
		err = pc.send(buf)
		frameBufPut(buf)
		if err != nil {
			s.abort(err, true)
			return g.waitErr()
		}
		s.wireBytes.Add(uint64(n))
		s.wireRawBytes.Add(uint64(head + 8*len(words)))
	}

	// Barrier: wait for every peer's frame for this step. The step state
	// is created here when no peer frame beat us to it (and always for a
	// single-member group, which waits on nobody).
	g.mu.Lock()
	st := g.pending[step]
	if st == nil {
		st = &stepState{sizes: make([][]uint32, gp), words: make([][]uint64, gp)}
		g.pending[step] = st
	}
	for st.got < gp-1 {
		if s.abortFlag.Load() {
			g.mu.Unlock()
			return g.waitErr()
		}
		g.cond.Wait()
	}
	delete(g.pending, step)
	g.mu.Unlock()

	// Deliver: peers' payloads plus the self-staged words; the displaced
	// self buffer becomes the next superstep's self staging cell, and
	// the previous superstep's peer rows (whose contents the contract
	// says no one may read past this point) recycle into the word pool
	// that the decode path draws from.
	spare := g.inbox[g.rank]
	for src := 0; src < gp; src++ {
		if src == g.rank {
			g.inbox[src] = g.staging[src]
		} else {
			if old := g.inbox[src]; cap(old) > 0 {
				g.sess.putWords(old)
			}
			g.inbox[src] = st.words[src]
		}
	}
	for dst := 0; dst < gp; dst++ {
		if dst == g.rank {
			g.staging[dst] = spare[:0]
		} else {
			g.staging[dst] = g.staging[dst][:0]
		}
	}

	// Account the h-relation from the full size matrix — byte-identical
	// to the in-process finalizer: max over destinations of the column
	// sum and over sources of the row sum.
	var h uint64
	for dst := 0; dst < gp; dst++ {
		var recv uint64
		for src := 0; src < gp; src++ {
			if src == g.rank {
				recv += uint64(g.mySizes[dst])
			} else {
				recv += uint64(st.sizes[src][dst])
			}
		}
		if recv > h {
			h = recv
		}
	}
	for src := 0; src < gp; src++ {
		var sent uint64
		if src == g.rank {
			for _, sz := range g.mySizes {
				sent += uint64(sz)
			}
		} else {
			for _, sz := range st.sizes[src] {
				sent += uint64(sz)
			}
		}
		if sent > h {
			h = sent
		}
	}
	g.ledger.Supersteps++
	g.ledger.CommVolume += h
	g.ledger.HRelations = append(g.ledger.HRelations, h)
	g.step = step + 1
	return nil
}

// waitErr returns the session's abort cause, never nil once aborted.
func (g *tcpGroup) waitErr() error {
	if err := g.sess.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: aborted with no recorded cause", ErrPeerLost)
}

// --- Transport ---

// Kind returns KindTCP.
func (g *tcpGroup) Kind() string { return KindTCP }

// Size returns the group's rank count.
func (g *tcpGroup) Size() int { return len(g.members) }

// LocalRanks returns the single rank this process hosts.
func (g *tcpGroup) LocalRanks() []int { return []int{g.rank} }

// Endpoint returns this process's endpoint; the group is its own
// endpoint.
func (g *tcpGroup) Endpoint(rank int) Endpoint {
	if rank != g.rank {
		panic(fmt.Sprintf("transport: rank %d not hosted by this process (local rank %d)", rank, g.rank))
	}
	return g
}

// AbortFlag returns the session's abort flag.
func (g *tcpGroup) AbortFlag() *atomic.Bool { return &g.sess.abortFlag }

// Abort poisons the session and notifies every peer process.
func (g *tcpGroup) Abort(err error) { g.sess.abort(err, true) }

// Err returns the abort cause, or nil.
func (g *tcpGroup) Err() error { return g.sess.Err() }

// Reset burns the group's single run; a second Reset is an error
// (sessions are per-job, the serving layer never pools them).
func (g *tcpGroup) Reset() error {
	if g.used {
		return fmt.Errorf("transport: tcp fabric is single-run (epoch %d)", g.sess.epoch)
	}
	g.used = true
	return nil
}

// FinishRun sums the run's wire traffic across processes: every member
// broadcasts its wire-byte counts and adds up what it receives. The
// superstep ledger needs no merge — every member computed the same one
// from the same size matrices.
func (g *tcpGroup) FinishRun() error {
	s := g.sess
	gp := len(g.members)
	ownWire := s.wireBytes.Load()
	ownRaw := s.wireRawBytes.Load()

	if gp > 1 {
		payload := encodeLedger(ownWire, ownRaw)
		for i, r := range g.members {
			if i == g.rank {
				continue
			}
			buf := appendFrameHeader(make([]byte, 0, 4+frameHeaderLen+len(payload)), frameLedger, s.epoch, 0, s.mesh.rank)
			buf = append(buf, payload...)
			patchFrameLen(buf)
			n, err := s.mesh.sendFrame(r, buf)
			if err != nil {
				s.abort(err, true)
				return g.waitErr()
			}
			s.wireBytes.Add(uint64(n))
			s.wireRawBytes.Add(uint64(n))
		}
		g.mu.Lock()
		for len(g.wireIn) < gp-1 {
			if s.abortFlag.Load() {
				g.mu.Unlock()
				return g.waitErr()
			}
			g.cond.Wait()
		}
		g.mu.Unlock()
	}

	g.ledger.WireBytes = ownWire
	g.ledger.WireRawBytes = ownRaw
	g.mu.Lock()
	for _, w := range g.wireIn {
		g.ledger.WireBytes += w.bytes
		g.ledger.WireRawBytes += w.raw
	}
	g.mu.Unlock()
	return nil
}

// Ledger returns the run's accounting; its wire-byte counts are the
// whole run's after FinishRun and zero before.
func (g *tcpGroup) Ledger() Ledger {
	out := g.ledger
	out.HRelations = append([]uint64(nil), g.ledger.HRelations...)
	return out
}

// Close closes the group's session.
func (g *tcpGroup) Close() error { return g.sess.Close() }

// appendUint32 appends v little-endian.
func appendUint32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// NewLoopbackMeshes builds a fully connected p-process mesh on
// 127.0.0.1 ephemeral ports, all in this process — the test harness for
// multi-process behaviour without spawning processes. Callers own the
// meshes and must Close each.
func NewLoopbackMeshes(p int, epoch uint64) ([]*Mesh, error) {
	return NewLoopbackMeshesWith(p, epoch, nil)
}

// NewLoopbackMeshesWith is the general loopback harness: mut (may be
// nil) edits each rank's MeshConfig before the mesh starts — the way
// tests set heartbeat intervals, incarnations, callbacks, or crash
// functions.
func NewLoopbackMeshesWith(p int, epoch uint64, mut func(rank int, cfg *MeshConfig)) ([]*Mesh, error) {
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	meshes := make([]*Mesh, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := MeshConfig{Rank: i, Addrs: addrs, MachineEpoch: epoch, Listener: lns[i]}
			if mut != nil {
				mut(i, &cfg)
			}
			meshes[i], errs[i] = NewMesh(cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, ms := range meshes {
				if ms != nil {
					ms.Close()
				}
			}
			return nil, err
		}
	}
	return meshes, nil
}
