package transport

import (
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Self-healing mesh tests: rejoin with incarnation numbers, the
// phi-accrual failure detector, partition healing, and the reconnect
// racing an in-flight superstep. Every test runs under a goroutine
// leak guard (the pattern from internal/bsp/abort_test.go): a stranded
// read pump or maintenance loop is exactly the leak these paths could
// introduce.

// leakGuard snapshots the goroutine count and returns a check that the
// count settled back to baseline.
func leakGuard(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	}
}

// fastMeshes builds p loopback meshes with test-speed heartbeats.
func fastMeshes(t *testing.T, p int, epoch uint64) []*Mesh {
	t.Helper()
	meshes, err := NewLoopbackMeshesWith(p, epoch, func(rank int, cfg *MeshConfig) {
		cfg.HeartbeatInterval = 25 * time.Millisecond
	})
	if err != nil {
		t.Fatalf("loopback meshes: %v", err)
	}
	return meshes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A killed rank's replacement (bumped incarnation) must rejoin the
// mesh through the ordinary setup flow: its dials land on the
// survivors' still-open accept loops and the surviving higher ranks
// redial it, after which a fresh session spans the full mesh again.
func TestMeshRejoinAfterCrash(t *testing.T) {
	defer leakGuard(t)()
	const p, epoch = 3, uint64(71)
	meshes := fastMeshes(t, p, epoch)
	closed := make([]bool, p)
	defer func() {
		for i, m := range meshes {
			if !closed[i] {
				m.Close()
			}
		}
	}()
	addrs := meshes[1].Addrs()

	// Baseline run across the healthy mesh.
	errs := runRanks(p, func(r int) error {
		sess, err := meshes[r].NewSession(1, allMembers(p))
		if err != nil {
			return err
		}
		defer sess.Close()
		return trafficPattern(sess.Root().Endpoint(r), 2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("baseline rank %d: %v", r, err)
		}
	}

	// Kill rank 1 and wait for the survivors to notice.
	meshes[1].Close()
	closed[1] = true
	waitFor(t, 5*time.Second, "survivors to mark rank 1 down", func() bool {
		return !meshes[0].PeerUp(1) && !meshes[2].PeerUp(1)
	})

	// Reincarnate rank 1 on the same address with a bumped incarnation.
	reborn, err := NewMesh(MeshConfig{
		Rank: 1, Addrs: addrs, MachineEpoch: epoch,
		Incarnation:       2,
		HeartbeatInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	meshes[1] = reborn
	closed[1] = false

	waitFor(t, 5*time.Second, "mesh to heal", func() bool {
		return meshes[0].PeerUp(1) && meshes[2].PeerUp(1)
	})
	if inc := meshes[0].PeerIncarnation(1); inc != 2 {
		t.Fatalf("rank 0 sees rank 1 incarnation %d, want 2", inc)
	}

	// A fresh session spans the healed mesh.
	errs = runRanks(p, func(r int) error {
		sess, err := meshes[r].NewSession(2, allMembers(p))
		if err != nil {
			return err
		}
		defer sess.Close()
		return trafficPattern(sess.Root().Endpoint(r), 3)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("post-rejoin rank %d: %v", r, err)
		}
	}
}

// A peer dying mid-superstep must abort the survivors' in-flight run
// with ErrPeerLost even while its replacement is dialing in — the
// reconnect must neither resurrect the dead run nor wedge the new
// mesh. The replacement races the survivors' abort path deliberately.
func TestMeshReconnectRacesInflightSuperstep(t *testing.T) {
	defer leakGuard(t)()
	const p, epoch = 3, uint64(72)
	meshes := fastMeshes(t, p, epoch)
	closed := make([]bool, p)
	defer func() {
		for i, m := range meshes {
			if !closed[i] {
				m.Close()
			}
		}
	}()
	addrs := meshes[1].Addrs()

	// Ranks 0 and 2 run a long exchange pattern; rank 1 participates for
	// two supersteps and then dies mid-run.
	var reborn *Mesh
	var rebornErr error
	var rejoinWG sync.WaitGroup
	errs := runRanks(p, func(r int) error {
		sess, err := meshes[r].NewSession(1, allMembers(p))
		if err != nil {
			return err
		}
		defer sess.Close()
		ep := sess.Root().Endpoint(r)
		for s := 0; s < 50; s++ {
			if r == 1 && s == 2 {
				// Die mid-run and immediately start the replacement — the
				// reconnect races the survivors' ErrPeerLost handling.
				meshes[1].Close()
				rejoinWG.Add(1)
				go func() {
					defer rejoinWG.Done()
					reborn, rebornErr = NewMesh(MeshConfig{
						Rank: 1, Addrs: addrs, MachineEpoch: epoch,
						Incarnation:       2,
						HeartbeatInterval: 25 * time.Millisecond,
					})
				}()
				return nil
			}
			for dst := 0; dst < p; dst++ {
				ep.Send(dst, []uint64{uint64(s)})
			}
			if err := ep.Exchange(); err != nil {
				return err
			}
		}
		return nil
	})
	closed[1] = true
	if errs[1] != nil {
		t.Fatalf("rank 1: %v", errs[1])
	}
	for _, r := range []int{0, 2} {
		if !errors.Is(errs[r], ErrPeerLost) {
			t.Fatalf("rank %d: %v, want ErrPeerLost", r, errs[r])
		}
	}

	rejoinWG.Wait()
	if rebornErr != nil {
		t.Fatalf("rejoin racing in-flight superstep: %v", rebornErr)
	}
	meshes[1] = reborn
	closed[1] = false
	waitFor(t, 5*time.Second, "mesh to heal", func() bool {
		return meshes[0].PeerUp(1) && meshes[2].PeerUp(1)
	})

	errs = runRanks(p, func(r int) error {
		sess, err := meshes[r].NewSession(2, allMembers(p))
		if err != nil {
			return err
		}
		defer sess.Close()
		return trafficPattern(sess.Root().Endpoint(r), 2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("post-race rank %d: %v", r, err)
		}
	}
}

// A peer that stays TCP-connected but goes silent must be severed by
// the phi detector, aborting in-flight sessions with ErrPeerLost —
// the failure mode a plain dead-socket check cannot see.
func TestPhiDetectorSeversSilentPeer(t *testing.T) {
	defer leakGuard(t)()
	const p, epoch = 2, uint64(73)
	meshes := fastMeshes(t, p, epoch)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()

	sess, err := meshes[0].NewSession(1, allMembers(p))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Starve rank 0 of rank 1's beacons without touching the socket.
	meshes[1].SetHeartbeatFilter(func(dst int) bool { return dst != 0 })

	waitFor(t, 10*time.Second, "phi detector to abort the session", func() bool {
		return errors.Is(sess.Err(), ErrPeerLost)
	})
	meshes[1].SetHeartbeatFilter(nil)
}

// An injected partition must sever the mesh (in-flight runs abort) and
// refuse reconnects for its duration; once it lifts, the mesh heals by
// itself and a fresh session works.
func TestMeshPartitionHeals(t *testing.T) {
	defer leakGuard(t)()
	const p, epoch = 2, uint64(74)
	meshes := fastMeshes(t, p, epoch)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()

	sess, err := meshes[0].NewSession(1, allMembers(p))
	if err != nil {
		t.Fatal(err)
	}
	meshes[1].Partition(200 * time.Millisecond)
	waitFor(t, 5*time.Second, "partition to abort the session", func() bool {
		return errors.Is(sess.Err(), ErrPeerLost)
	})
	sess.Close()

	waitFor(t, 5*time.Second, "partition to heal", func() bool {
		return meshes[0].PeerUp(1) && meshes[1].PeerUp(0)
	})
	errs := runRanks(p, func(r int) error {
		s, err := meshes[r].NewSession(2, allMembers(p))
		if err != nil {
			return err
		}
		defer s.Close()
		return trafficPattern(s.Root().Endpoint(r), 2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("post-heal rank %d: %v", r, err)
		}
	}
}

// A stale dialer — same rank, incarnation below the slot's high-water
// mark — must be rejected without disturbing the live connection.
func TestMeshRejectsStaleIncarnation(t *testing.T) {
	defer leakGuard(t)()
	const p, epoch = 2, uint64(75)
	meshes, err := NewLoopbackMeshesWith(p, epoch, func(rank int, cfg *MeshConfig) {
		cfg.HeartbeatInterval = 25 * time.Millisecond
		cfg.Incarnation = 5 // both ranks start at incarnation 5
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	if inc := meshes[0].PeerIncarnation(1); inc != 5 {
		t.Fatalf("rank 0 sees rank 1 incarnation %d, want 5", inc)
	}

	// A stale duplicate claims rank 1 at incarnation 3.
	stale, err := net.Dial("tcp", meshes[0].Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := writePreamble(stale, 1, epoch, 3); err != nil {
		t.Fatal(err)
	}
	// The accepter must close the stale connection...
	_ = stale.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stale.Read(make([]byte, 1)); err == nil {
		t.Fatal("stale dialer was admitted (read succeeded)")
	}
	stale.Close()

	// ...and the real connection must still carry traffic.
	errs := runRanks(p, func(r int) error {
		s, err := meshes[r].NewSession(1, allMembers(p))
		if err != nil {
			return err
		}
		defer s.Close()
		return trafficPattern(s.Root().Endpoint(r), 2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// The detector's math: regular arrivals keep phi at zero; silence
// makes it grow past any practical threshold.
func TestPhiDetectorMath(t *testing.T) {
	d := newPhiDetector(100 * time.Millisecond)
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		d.observe(base.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	last := base.Add(900 * time.Millisecond)
	if phi := d.phi(last.Add(50 * time.Millisecond)); phi != 0 {
		t.Fatalf("phi=%v right after an arrival, want 0", phi)
	}
	if phi := d.phi(last.Add(150 * time.Millisecond)); phi <= 0 {
		t.Fatalf("phi=%v after 1.5 intervals of silence, want > 0", phi)
	}
	phiLong := d.phi(last.Add(time.Second))
	if phiLong < 8 {
		t.Fatalf("phi=%v after 10 intervals of silence, want ≥ 8", phiLong)
	}
	if phiShort := d.phi(last.Add(300 * time.Millisecond)); phiShort >= phiLong {
		t.Fatalf("phi not monotone: %v at 3 intervals vs %v at 10", phiShort, phiLong)
	}
}

// Sustained data traffic between heartbeats is proof of life and must
// not leak into the interval window: thousands of touches per beat leave
// the window's mean at the beat interval, so the ordinary wait for the
// next beat stays far below the severing threshold. (Sampling from the
// last frame of any kind collapsed the window to the touch gap, and one
// beat interval of silence then read as φ ≈ 300.)
func TestPhiDetectorIgnoresDataFramesBetweenBeats(t *testing.T) {
	const beat, touches = 100 * time.Millisecond, 2000
	d := newPhiDetector(beat)
	at := time.Unix(1000, 0)
	d.observe(at)
	for i := 0; i < 2*phiWindow; i++ {
		for j := 1; j < touches; j++ {
			d.touch(at.Add(time.Duration(j) * beat / touches))
		}
		at = at.Add(beat)
		d.observe(at)
	}
	var sum float64
	for _, iv := range d.intervals[:d.n] {
		sum += iv
	}
	if mean := sum / float64(d.n); math.Abs(mean-beat.Seconds()) > 1e-9 {
		t.Errorf("window mean %.6fs after sustained traffic, want the beat interval %.3fs", mean, beat.Seconds())
	}
	// The traffic stops; the next beat is a little late.
	if phi := d.phi(at.Add(beat + beat/4)); phi >= defaultPhiThreshold {
		t.Errorf("phi=%.1f at 1.25 beat intervals of silence, want < %d", phi, defaultPhiThreshold)
	}
}

// Sanity on the helper contract: DropPeers alone (no partition) heals
// within a few heartbeat intervals thanks to the redial machinery.
func TestMeshDropHeals(t *testing.T) {
	defer leakGuard(t)()
	const p, epoch = 2, uint64(76)
	meshes := fastMeshes(t, p, epoch)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	meshes[1].DropPeers()
	waitFor(t, 5*time.Second, "drop to heal", func() bool {
		return meshes[0].PeerUp(1) && meshes[1].PeerUp(0)
	})
	errs := runRanks(p, func(r int) error {
		s, err := meshes[r].NewSession(1, allMembers(p))
		if err != nil {
			return err
		}
		defer s.Close()
		return trafficPattern(s.Root().Endpoint(r), 2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
