package transport

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/backoff"
)

// The TCP fabric: each mesh rank is a separate worker process holding
// one persistent framed connection to every peer (full mesh). On top of
// the mesh, a Session (session.go) scopes one BSP run, keyed by epoch,
// and is that run's Transport and this process's Endpoint. This file is
// the mesh itself: membership, handshake admission, the read pumps that
// route frames to sessions, heartbeats, healing, and control frames.
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
	rank  int
	p     int
	epoch uint64
	inc   uint64

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
	orphans   map[uint64]*orphanQueue
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

// orphanQueue holds the frames that arrived for an epoch with no
// registered session: either the session is about to register (the
// leader's first superstep raced the peer's NewSession), or it never
// will (the peer declined the run, or already closed its session).
type orphanQueue struct {
	first  time.Time // arrival of the epoch's first parked frame
	frames []frame
}

// maxOrphans bounds frames buffered for a not-yet-registered session;
// beyond it the sender is protocol-broken and the frames are
// dropped (the eventual barrier wait surfaces the loss as a stall that
// the job deadline converts into a cancel).
const maxOrphans = 1 << 16

// orphanTTL is how long an epoch's parked frames wait for their
// session. A session registers one goroutine start and a registry
// lookup after the control frame that announces its run — microseconds,
// milliseconds on an overloaded host — so a backlog this old belongs to
// a session that will never register: its rank declined the run, or
// closed the session before its peers' last frames landed. Four orders
// of magnitude of headroom keep a slow registration from ever losing
// its backlog. The maintenance loop purges, so a stale backlog lives at
// most one heartbeat interval longer.
const orphanTTL = 30 * time.Second

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
	m := &Mesh{
		rank:       cfg.Rank,
		p:          p,
		epoch:      cfg.MachineEpoch,
		inc:        inc,
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
		orphans:    make(map[uint64]*orphanQueue),
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
		if err == nil {
			err = m.dialHandshake(conn, deadline)
		}
		if err != nil {
			if conn != nil {
				conn.Close()
			}
			m.Close()
			return nil, fmt.Errorf("transport: dial rank %d (%s): %w", j, cfg.Addrs[j], err)
		}
		m.admitPeer(j, 0, conn)
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
// preamble, then wait for the accepter's ack.
func (m *Mesh) dialHandshake(conn net.Conn, deadline time.Time) error {
	if err := writePreamble(conn, m.rank, m.epoch, m.inc); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(deadline)
	err := readAck(conn)
	_ = conn.SetReadDeadline(time.Time{})
	return err
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
		rank, inc, err := readPreamble(conn, m.epoch)
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
			err = writeAck(conn)
		}
		if err != nil {
			conn.Close()
			select {
			case ch <- err:
			default:
			}
			continue
		}
		m.admitPeer(rank, inc, conn)
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
func (m *Mesh) admitPeer(rank int, inc uint64, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // supersteps are latency-bound, not throughput-bound
	}
	pc := &peerConn{rank: rank, conn: conn}
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
		now := time.Now()
		switch f.kind {
		case frameHeartbeat:
			det.observe(now)
			f.release()
			continue
		case frameControl:
			det.touch(now)
			if h := m.control; h != nil {
				// Control handlers consume the payload synchronously
				// (the shard tier unmarshals it); nothing retains it.
				h(f.src, f.epoch, f.payload)
			}
			f.release()
			continue
		}
		det.touch(now)
		m.mu.Lock()
		s := m.sessions[f.epoch]
		if s == nil {
			m.park(f, now)
			m.mu.Unlock()
			continue
		}
		m.mu.Unlock()
		s.deliver(f)
	}
}

// park buffers a frame for an epoch with no registered session until
// the session registers or purgeOrphans frees the backlog. The caller
// holds m.mu.
func (m *Mesh) park(f frame, now time.Time) {
	q := m.orphans[f.epoch]
	if q == nil {
		q = &orphanQueue{first: now}
		m.orphans[f.epoch] = q
	}
	if m.closed || len(q.frames) >= maxOrphans {
		f.release()
		return
	}
	q.frames = append(q.frames, f)
}

// purgeOrphans frees the parked frames of every epoch whose first frame
// arrived more than orphanTTL before now.
func (m *Mesh) purgeOrphans(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for epoch, q := range m.orphans {
		if now.Sub(q.first) > orphanTTL {
			for i := range q.frames {
				q.frames[i].release()
			}
			delete(m.orphans, epoch)
		}
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

// sendFrame writes one frame to a mesh peer.
func (m *Mesh) sendFrame(dst int, buf []byte) error {
	pc, err := m.peer(dst)
	if err != nil {
		return err
	}
	return pc.send(buf)
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
	return m.sendFrame(dst, buf)
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
// crossed the threshold, redials lost lower ranks (the same
// higher-dials-lower orientation as initial setup, so reconnects never
// cross), and frees orphaned frames past orphanTTL.
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
		m.purgeOrphans(now)
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
	if err := m.dialHandshake(conn, time.Now().Add(timeout)); err != nil {
		conn.Close()
		return
	}
	m.admitPeer(rank, 0, conn)
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
