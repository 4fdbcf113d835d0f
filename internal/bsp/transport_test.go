package bsp_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/transport"
)

// runOverTCP executes the same SPMD body once per worker "process" over
// a loopback mesh and returns each process's Stats (identical by
// construction when the run succeeds).
func runOverTCP(t *testing.T, p int, epoch uint64, body func(c *bsp.Comm)) ([]*bsp.Stats, []error) {
	t.Helper()
	meshes, err := transport.NewLoopbackMeshes(p, 1)
	if err != nil {
		t.Fatalf("loopback meshes: %v", err)
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	stats := make([]*bsp.Stats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess, err := meshes[r].NewSession(epoch, members)
			if err != nil {
				errs[r] = err
				return
			}
			defer sess.Close()
			m, err := bsp.NewMachineOver(sess.Root())
			if err != nil {
				errs[r] = err
				return
			}
			stats[r], errs[r] = m.Run(body)
		}(r)
	}
	wg.Wait()
	return stats, errs
}

// collectiveWorkout exercises every collective; the returned word is a
// per-rank checksum every transport must reproduce.
func collectiveWorkout(c *bsp.Comm) uint64 {
	p := c.Size()
	r := c.Rank()
	var sum uint64

	bc := c.Broadcast(0, []uint64{7, 11, 13})
	for _, w := range bc {
		sum += w
	}
	parts := c.AllGather([]uint64{uint64(r + 1)})
	for _, part := range parts {
		for _, w := range part {
			sum += w * 3
		}
	}
	red := c.AllReduce([]uint64{uint64(r), 1}, bsp.OpSum)
	sum += red[0]*5 + red[1]

	// Large broadcast takes the two-phase path.
	big := make([]uint64, 4*p+3)
	for i := range big {
		big[i] = uint64(i * i)
	}
	got := c.Broadcast(p-1, big)
	for _, w := range got {
		sum += w
	}

	mx := c.AllReduce([]uint64{uint64(r + 100)}, bsp.OpMax)
	sum += mx[0] * 7
	c.Barrier()

	all := c.AllToAll(func() [][]uint64 {
		out := make([][]uint64, p)
		for d := range out {
			out[d] = []uint64{sum % 1000, uint64(d)}
		}
		return out
	}())
	for _, part := range all {
		sum += part[0]
	}
	return sum
}

func TestMachineOverTCPMatchesLocal(t *testing.T) {
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			sums := make([]uint64, p)
			var mu sync.Mutex
			body := func(c *bsp.Comm) {
				s := collectiveWorkout(c)
				mu.Lock()
				sums[c.Rank()] = s
				mu.Unlock()
			}
			localStats, err := bsp.Run(p, body)
			if err != nil {
				t.Fatalf("local run: %v", err)
			}
			localSums := append([]uint64(nil), sums...)

			for i := range sums {
				sums[i] = 0
			}
			tcpStats, errs := runOverTCP(t, p, 1000+uint64(p), body)
			for r, err := range errs {
				if err != nil {
					t.Fatalf("tcp rank %d: %v", r, err)
				}
			}
			if fmt.Sprint(sums) != fmt.Sprint(localSums) {
				t.Fatalf("tcp results %v != local %v", sums, localSums)
			}
			for r, st := range tcpStats {
				if st.Supersteps != localStats.Supersteps || st.CommVolume != localStats.CommVolume {
					t.Fatalf("rank %d: tcp ss=%d vol=%d != local ss=%d vol=%d",
						r, st.Supersteps, st.CommVolume, localStats.Supersteps, localStats.CommVolume)
				}
				if st.Transport != transport.KindTCP {
					t.Fatalf("rank %d transport label %q", r, st.Transport)
				}
				if st.WireBytes == 0 {
					t.Fatalf("rank %d: no wire bytes accounted", r)
				}
			}
			if localStats.Transport != transport.KindLocal || localStats.WireBytes != 0 {
				t.Fatalf("local stats transport=%q wire=%d", localStats.Transport, localStats.WireBytes)
			}
		})
	}
}

func TestMachineOverTCPCancelPropagates(t *testing.T) {
	const p = 3
	meshes, err := transport.NewLoopbackMeshes(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	members := []int{0, 1, 2}
	cause := errors.New("operator pulled the plug")
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess, err := meshes[r].NewSession(2, members)
			if err != nil {
				errs[r] = err
				return
			}
			defer sess.Close()
			m, err := bsp.NewMachineOver(sess.Root())
			if err != nil {
				errs[r] = err
				return
			}
			if r == 0 {
				go func() {
					time.Sleep(20 * time.Millisecond)
					m.Cancel(cause)
				}()
			}
			_, errs[r] = m.Run(func(c *bsp.Comm) {
				for {
					c.Sync()
				}
			})
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if !errors.Is(errs[r], bsp.ErrCancelled) {
			t.Fatalf("rank %d: %v, want ErrCancelled (cancel must cross the wire)", r, errs[r])
		}
	}
}

// TestTCPRunEndsAtLastSuperstep pins where a socket run ends: at its
// last Exchange. Rank 1's body, after three supersteps, waits for rank
// 0's Run to return, so any message wave after the last superstep that
// rank 0 waited on would hold both ranks until the guard fires.
func TestTCPRunEndsAtLastSuperstep(t *testing.T) {
	const p, steps = 2, 3
	meshes, err := transport.NewLoopbackMeshes(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	rank0Done := make(chan struct{})
	stats := make([]*bsp.Stats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r == 0 {
				defer close(rank0Done)
			}
			sess, err := meshes[r].NewSession(3, []int{0, 1})
			if err != nil {
				errs[r] = err
				return
			}
			defer sess.Close()
			m, err := bsp.NewMachineOver(sess.Root())
			if err != nil {
				errs[r] = err
				return
			}
			stats[r], errs[r] = m.Run(func(c *bsp.Comm) {
				for s := 0; s < steps; s++ {
					c.Send(1-c.Rank(), []uint64{uint64(s), uint64(c.Rank())})
					c.Sync()
				}
				if c.Rank() == 1 {
					select {
					case <-rank0Done:
					case <-time.After(5 * time.Second):
						t.Error("rank 0's run did not return before rank 1's body ended")
					}
				}
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, st := range stats {
		if st.Supersteps != steps {
			t.Errorf("rank %d: %d supersteps, want %d", r, st.Supersteps, steps)
		}
		if st.WireBytes == 0 || st.WireBytes != stats[0].WireBytes {
			t.Errorf("rank %d: wire %d, rank 0 %d", r, st.WireBytes, stats[0].WireBytes)
		}
	}
}
