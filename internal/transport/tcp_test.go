package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// newLoopbackListeners binds n ephemeral loopback listeners.
func newLoopbackListeners(n int) ([]net.Listener, error) {
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
	}
	return lns, nil
}

// withMeshes builds p loopback meshes, hands them to fn, and tears them
// down.
func withMeshes(t *testing.T, p int, fn func(meshes []*Mesh)) {
	t.Helper()
	meshes, err := NewLoopbackMeshes(p, 42)
	if err != nil {
		t.Fatalf("loopback meshes: %v", err)
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	fn(meshes)
}

// runRanks runs body once per rank concurrently and returns the
// per-rank errors.
func runRanks(p int, body func(rank int) error) []error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(r)
		}(r)
	}
	wg.Wait()
	return errs
}

func allMembers(p int) []int {
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	return members
}

// trafficPattern drives a deterministic exchange pattern on any
// Endpoint: superstep s, rank r sends (s<<16 | r<<8 | dst) repeated
// (r+s)%3+ (rank-dependent) times.
func trafficPattern(ep Endpoint, steps int) error {
	p := ep.Size()
	r := ep.Rank()
	for s := 0; s < steps; s++ {
		for dst := 0; dst < p; dst++ {
			n := (r+s+dst)%3 + 1
			for i := 0; i < n; i++ {
				ep.Send(dst, []uint64{uint64(s)<<16 | uint64(r)<<8 | uint64(dst)})
			}
		}
		if err := ep.Exchange(); err != nil {
			return err
		}
		for src := 0; src < p; src++ {
			got := ep.Recv(src)
			wantN := (src+s+r)%3 + 1
			if len(got) != wantN {
				return fmt.Errorf("rank %d step %d from %d: %d words, want %d", r, s, src, len(got), wantN)
			}
			want := uint64(s)<<16 | uint64(src)<<8 | uint64(r)
			for _, w := range got {
				if w != want {
					return fmt.Errorf("rank %d step %d from %d: word %#x, want %#x", r, s, src, w, want)
				}
			}
		}
	}
	return nil
}

func ledgerEq(a, b Ledger) bool {
	if a.Supersteps != b.Supersteps || a.CommVolume != b.CommVolume || len(a.HRelations) != len(b.HRelations) {
		return false
	}
	for i := range a.HRelations {
		if a.HRelations[i] != b.HRelations[i] {
			return false
		}
	}
	return true
}

func TestTCPExchangeMatchesLocal(t *testing.T) {
	const steps = 5
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			local := runLocal(t, p, func(ep *LocalEndpoint) error {
				return trafficPattern(ep, steps)
			})
			wantLedger := local.Ledger()

			withMeshes(t, p, func(meshes []*Mesh) {
				ledgers := make([]Ledger, p)
				errs := runRanks(p, func(r int) error {
					sess, err := meshes[r].NewSession(1, allMembers(p))
					if err != nil {
						return err
					}
					defer sess.Close()
					root := sess.Root()
					if err := root.Reset(); err != nil {
						return err
					}
					if err := trafficPattern(root.Endpoint(r), steps); err != nil {
						return err
					}
					ledgers[r] = root.Ledger()
					return nil
				})
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				for r := 0; r < p; r++ {
					if !ledgerEq(ledgers[r], wantLedger) {
						t.Fatalf("rank %d tcp ledger %+v != local %+v", r, ledgers[r], wantLedger)
					}
					if ledgers[r].WireBytes == 0 {
						t.Fatalf("rank %d: wire bytes not accounted", r)
					}
				}
			})
		})
	}
}

func TestTCPRemoteAbortCarriesCancel(t *testing.T) {
	const p = 3
	withMeshes(t, p, func(meshes []*Mesh) {
		cause := fmt.Errorf("deadline blew: %w", ErrCancelled)
		errs := runRanks(p, func(r int) error {
			sess, err := meshes[r].NewSession(9, allMembers(p))
			if err != nil {
				return err
			}
			defer sess.Close()
			root := sess.Root()
			if r == 0 {
				// Give peers time to block in Exchange, then cancel.
				time.Sleep(30 * time.Millisecond)
				root.Abort(cause)
				return nil
			}
			return root.Endpoint(r).Exchange()
		})
		for r := 1; r < p; r++ {
			var ra *RemoteAbort
			if !errors.As(errs[r], &ra) {
				t.Fatalf("rank %d: %v, want RemoteAbort", r, errs[r])
			}
			if !ra.Cancelled || ra.Rank != 0 {
				t.Fatalf("rank %d: RemoteAbort %+v, want cancelled from rank 0", r, ra)
			}
		}
	})
}

func TestTCPPeerLossAborts(t *testing.T) {
	const p = 3
	withMeshes(t, p, func(meshes []*Mesh) {
		errs := runRanks(p, func(r int) error {
			sess, err := meshes[r].NewSession(5, allMembers(p))
			if err != nil {
				return err
			}
			defer sess.Close()
			root := sess.Root()
			if r == 0 {
				time.Sleep(30 * time.Millisecond)
				meshes[0].Close() // process death
				return nil
			}
			return root.Endpoint(r).Exchange()
		})
		for r := 1; r < p; r++ {
			if !errors.Is(errs[r], ErrPeerLost) {
				t.Fatalf("rank %d: %v, want ErrPeerLost", r, errs[r])
			}
		}
	})
}

func TestTCPWireStallHook(t *testing.T) {
	const p = 2
	withMeshes(t, p, func(meshes []*Mesh) {
		const stall = 60 * time.Millisecond
		start := time.Now()
		errs := runRanks(p, func(r int) error {
			sess, err := meshes[r].NewSession(3, allMembers(p))
			if err != nil {
				return err
			}
			defer sess.Close()
			if r == 1 {
				sess.SetWireHook(func(step uint64) (bool, time.Duration, bool, time.Duration) {
					if step == 0 {
						return false, stall, false, 0
					}
					return false, 0, false, 0
				})
			}
			return sess.Root().Endpoint(r).Exchange()
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		if el := time.Since(start); el < stall {
			t.Fatalf("exchange finished in %v, stall hook (%v) did not bite", el, stall)
		}
	})
}

func TestTCPWireDropHook(t *testing.T) {
	const p = 2
	withMeshes(t, p, func(meshes []*Mesh) {
		errs := runRanks(p, func(r int) error {
			sess, err := meshes[r].NewSession(4, allMembers(p))
			if err != nil {
				return err
			}
			defer sess.Close()
			if r == 1 {
				sess.SetWireHook(func(step uint64) (bool, time.Duration, bool, time.Duration) {
					return step == 0, 0, false, 0
				})
			}
			return sess.Root().Endpoint(r).Exchange()
		})
		for r, err := range errs {
			if !errors.Is(err, ErrPeerLost) {
				t.Fatalf("rank %d: %v, want ErrPeerLost", r, err)
			}
		}
	})
}

func TestTCPHandshakeEpochMismatch(t *testing.T) {
	// Two processes from different machine epochs must refuse to mesh.
	lnA, err := newLoopbackListeners(2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA[0].Addr().String(), lnA[1].Addr().String()}
	var wg sync.WaitGroup
	var errA, errB error
	var meshA, meshB *Mesh
	wg.Add(2)
	go func() {
		defer wg.Done()
		meshA, errA = NewMesh(MeshConfig{Rank: 0, Addrs: addrs, MachineEpoch: 1, Listener: lnA[0], DialTimeout: 2 * time.Second})
	}()
	go func() {
		defer wg.Done()
		meshB, errB = NewMesh(MeshConfig{Rank: 1, Addrs: addrs, MachineEpoch: 2, Listener: lnA[1], DialTimeout: 2 * time.Second})
	}()
	wg.Wait()
	if errA == nil && errB == nil {
		t.Fatal("meshes with mismatched machine epochs connected")
	}
	if meshA != nil {
		meshA.Close()
	}
	if meshB != nil {
		meshB.Close()
	}
}

func TestTCPSingleRun(t *testing.T) {
	withMeshes(t, 2, func(meshes []*Mesh) {
		errs := runRanks(2, func(r int) error {
			sess, err := meshes[r].NewSession(8, allMembers(2))
			if err != nil {
				return err
			}
			defer sess.Close()
			root := sess.Root()
			if err := root.Reset(); err != nil {
				return err
			}
			if err := root.Reset(); err == nil {
				return errors.New("second Reset on a tcp fabric must fail")
			}
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	})
}

// A run spans the whole mesh: a session whose members are a subset, a
// permutation or a superset of the mesh's ranks is refused.
func TestNewSessionRequiresWholeMesh(t *testing.T) {
	const p = 3
	withMeshes(t, p, func(meshes []*Mesh) {
		for i, members := range [][]int{nil, {0, 1}, {0, 2}, {0, 2, 1}, {1, 2, 0}, {0, 1, 2, 3}, {0, 1, 1}} {
			if sess, err := meshes[0].NewSession(uint64(10+i), members); err == nil {
				sess.Close()
				t.Errorf("members %v: session accepted on a %d-rank mesh", members, p)
			}
		}
		sess, err := meshes[0].NewSession(1, allMembers(p))
		if err != nil {
			t.Fatalf("whole mesh refused: %v", err)
		}
		sess.Close()
	})
}

// orphanFrames reports how many frames rank m holds parked for epoch.
func orphanFrames(m *Mesh, epoch uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q := m.orphans[epoch]; q != nil {
		return len(q.frames)
	}
	return -1
}

// A frame for an epoch with no session parks until the session
// registers; the maintenance purge frees a backlog older than
// orphanTTL — whether its session never registers or already closed —
// and leaves a younger one for its session.
func TestOrphanedFramesFreed(t *testing.T) {
	withMeshes(t, 2, func(meshes []*Mesh) {
		park := func(epoch uint64) {
			t.Helper()
			payload := encodeAbort(true, false, "leader gave up")
			buf := appendFrameHeader(nil, frameAbort, epoch, 0, 1)
			buf = append(buf, payload...)
			patchFrameLen(buf)
			if err := meshes[1].sendFrame(0, buf); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "frame to park", func() bool { return orphanFrames(meshes[0], epoch) == 1 })
		}
		const never, closed, late = 100, 200, 300

		park(never)
		sess, err := meshes[0].NewSession(closed, allMembers(2))
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
		park(closed)
		cut := time.Now() // after the first two backlogs arrived, before the third
		park(late)

		meshes[0].purgeOrphans(cut.Add(orphanTTL))
		for _, epoch := range []uint64{never, closed} {
			if n := orphanFrames(meshes[0], epoch); n != -1 {
				t.Errorf("epoch %d: %d frames still parked past orphanTTL", epoch, n)
			}
		}
		if n := orphanFrames(meshes[0], late); n != 1 {
			t.Fatalf("epoch %d: %d frames parked within orphanTTL, want 1", late, n)
		}

		sess, err = meshes[0].NewSession(late, allMembers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var ra *RemoteAbort
		if !errors.As(sess.Err(), &ra) || !ra.Cancelled {
			t.Fatalf("late session: %v, want the parked remote cancel", sess.Err())
		}
	})
}

// sessionRun drives one session's root group through steps supersteps
// of salted, rank- and step-dependent payloads (hundreds of words, so
// concurrent writers hold a peer's socket long enough to contend), with
// a CONTROL frame to every peer before each Exchange. It returns every
// word the rank received, in order, and the run's ledger.
func sessionRun(m *Mesh, epoch uint64, p, steps int, salt uint64) ([]uint64, Ledger, error) {
	sess, err := m.NewSession(epoch, allMembers(p))
	if err != nil {
		return nil, Ledger{}, err
	}
	defer sess.Close()
	root := sess.Root()
	if err := root.Reset(); err != nil {
		return nil, Ledger{}, err
	}
	r := m.Rank()
	ep := root.Endpoint(r)
	var got []uint64
	for s := 0; s < steps; s++ {
		for dst := 0; dst < p; dst++ {
			for i := 0; i < 40*((r+s+dst)%7)+1; i++ {
				ep.Send(dst, []uint64{salt<<48 | uint64(s)<<32 | uint64(r)<<24 | uint64(dst)<<16 | uint64(i)})
			}
			if dst != r {
				if err := m.SendControl(dst, epoch, []byte{byte(s)}); err != nil {
					return nil, Ledger{}, err
				}
			}
		}
		if err := ep.Exchange(); err != nil {
			return nil, Ledger{}, err
		}
		for src := 0; src < p; src++ {
			got = append(got, ep.Recv(src)...)
		}
	}
	return got, root.Ledger(), nil
}

// TestTwoSessionsShareOneMesh runs two sessions concurrently over the
// same p=3 meshes — two writers contending for every peer connection,
// as a worker with two executors does — with CONTROL frames interleaved
// between their DATA frames. Every rank must receive exactly the words
// and ledger each session produces when it runs alone, and each peer's
// CONTROL frames must arrive in the order they were sent.
func TestTwoSessionsShareOneMesh(t *testing.T) {
	const p, steps = 3, 20
	var mu sync.Mutex
	ctrl := make(map[[3]uint64][]byte) // (rank, epoch, src) → payloads in arrival order
	meshes, err := NewLoopbackMeshesWith(p, 42, func(rank int, cfg *MeshConfig) {
		cfg.Control = func(src int, epoch uint64, payload []byte) {
			mu.Lock()
			k := [3]uint64{uint64(rank), epoch, uint64(src)}
			ctrl[k] = append(ctrl[k], payload...)
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()

	type result struct {
		words  []uint64
		ledger Ledger
	}
	run := func(epoch, salt uint64) []result {
		out := make([]result, p)
		errs := runRanks(p, func(r int) (err error) {
			out[r].words, out[r].ledger, err = sessionRun(meshes[r], epoch, p, steps, salt)
			return err
		})
		for r, err := range errs {
			if err != nil {
				t.Errorf("epoch %d rank %d: %v", epoch, r, err)
			}
		}
		return out
	}
	want := [][]result{run(1, 1), run(2, 2)}
	var got [2][]result
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(uint64(3+i), uint64(1+i))
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range got {
		for r := 0; r < p; r++ {
			g, w := got[i][r], want[i][r]
			if !ledgerEq(g.ledger, w.ledger) || g.ledger.WireBytes != w.ledger.WireBytes {
				t.Errorf("session %d rank %d: ledger %+v, alone %+v", i, r, g.ledger, w.ledger)
			}
			if fmt.Sprint(g.words) != fmt.Sprint(w.words) {
				t.Errorf("session %d rank %d: received words differ from the session run alone", i, r)
			}
		}
	}
	inOrder := make([]byte, steps)
	for s := range inOrder {
		inOrder[s] = byte(s)
	}
	mu.Lock()
	defer mu.Unlock()
	for r := 0; r < p; r++ {
		for epoch := uint64(1); epoch <= 4; epoch++ {
			for src := 0; src < p; src++ {
				if src == r {
					continue
				}
				if k := [3]uint64{uint64(r), epoch, uint64(src)}; string(ctrl[k]) != string(inOrder) {
					t.Errorf("rank %d epoch %d: CONTROL from %d arrived as %v", r, epoch, src, ctrl[k])
				}
			}
		}
	}
}
