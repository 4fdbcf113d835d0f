package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// freePorts reserves n distinct loopback ports by binding and releasing
// them. The gap between release and the worker's bind is racy in
// principle, but loopback port churn in the test environment is nil.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", url)
}

// buildCamcd compiles the daemon once per test into a temp dir.
func buildCamcd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "camcd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building camcd: %v", err)
	}
	return bin
}

// TestThreeProcessFleet is the README's deployment for real: it builds
// the camcd binary, spawns two -worker processes forming one 2-rank
// shard plus a -frontend process, and runs a query through the public
// API — exercising the TCP mesh, the job-control protocol, and the
// sharded routing across genuine process boundaries.
func TestThreeProcessFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped under -short")
	}
	bin := buildCamcd(t)

	ports := freePorts(t, 5) // 2 mesh + 2 worker HTTP + 1 frontend HTTP
	mesh := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", ports[0], ports[1])
	workerHTTP := []string{
		fmt.Sprintf("127.0.0.1:%d", ports[2]),
		fmt.Sprintf("127.0.0.1:%d", ports[3]),
	}
	frontHTTP := fmt.Sprintf("127.0.0.1:%d", ports[4])

	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning %v: %v", args, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	// Both workers start concurrently: each blocks until the mesh is up.
	spawn("-worker", "-rank=0", "-peers="+mesh, "-epoch=7", "-addr="+workerHTTP[0], "-workers=1")
	spawn("-worker", "-rank=1", "-peers="+mesh, "-epoch=7", "-addr="+workerHTTP[1], "-workers=1")
	spawn("-frontend", "-shards="+workerHTTP[0]+","+workerHTTP[1], "-addr="+frontHTTP)

	base := "http://" + frontHTTP
	waitHealthy(t, base)
	for _, w := range workerHTTP {
		waitHealthy(t, "http://"+w)
	}

	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, gen.Cycle(48, 5)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/graphs?name=ring48", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// cc and the ring's certified mincut are answered by the leader's
	// plan on the local fabric; the approximate cut runs on the mesh.
	for alg, want := range map[string]uint64{"mincut": 10, "cc": 1, "approxcut": 0} {
		body := fmt.Sprintf(`{"graph":"ring48","algorithm":%q}`, alg)
		resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var qr struct {
			Value      *uint64 `json:"value"`
			Components *int    `json:"components"`
			Kernel     struct {
				P         int    `json:"p"`
				Transport string `json:"transport"`
				WireBytes uint64 `json:"wire_bytes"`
			} `json:"kernel"`
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", alg, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch alg {
		case "mincut":
			if qr.Value == nil || *qr.Value != want {
				t.Fatalf("mincut = %v, want %d", qr.Value, want)
			}
		case "cc":
			if qr.Components == nil || uint64(*qr.Components) != want {
				t.Fatalf("components = %v, want %d", qr.Components, want)
			}
		case "approxcut":
			if qr.Value == nil || *qr.Value == 0 {
				t.Fatalf("approxcut = %v, want a connected ring's estimate 2^i", qr.Value)
			}
			if qr.Kernel.P != 2 || qr.Kernel.Transport != "tcp" || qr.Kernel.WireBytes == 0 {
				t.Fatalf("%s kernel = %+v: want p=2 over tcp with wire traffic", alg, qr.Kernel)
			}
			continue
		}
		if qr.Kernel.P != 2 || qr.Kernel.Transport != "local" || qr.Kernel.WireBytes != 0 {
			t.Fatalf("%s kernel = %+v: want p=2 on the leader's local fabric, no wire traffic", alg, qr.Kernel)
		}
	}
}

// waitReady polls /readyz until the worker reports every mesh peer up
// and graph catch-up complete.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", url)
}

// graphListing fetches GET /v1/graphs for fingerprint comparison.
func graphListing(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func uploadTo(t *testing.T, base, name string, g *graph.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/graphs?name="+name, "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s to %s: status %d", name, base, resp.StatusCode)
	}
}

func queryMincut(t *testing.T, base, name string) (*http.Response, *uint64) {
	t.Helper()
	body := fmt.Sprintf(`{"graph":%q,"algorithm":"mincut","seed":11}`, name)
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr struct {
		Value *uint64 `json:"value"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&qr)
	return resp, qr.Value
}

// TestSupervisedWorkerSelfHeals is the fleet self-healing chaos drill
// across real process boundaries: a 2-rank fleet where rank 1 runs
// under -supervise with a crash@1:1 fault. The first distributed query
// kills rank 1 mid-run (exit status 86); the leader fails the query
// closed with 503 + Retry-After; the supervisor respawns rank 1 with a
// bumped incarnation and no fault spec; the replacement catches up
// every graph — including one registered while it was dead —
// byte-identically, and the identical query then returns the same cut.
func TestSupervisedWorkerSelfHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped under -short")
	}
	bin := buildCamcd(t)

	ports := freePorts(t, 4) // 2 mesh + 2 worker HTTP
	mesh := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", ports[0], ports[1])
	leaderHTTP := fmt.Sprintf("http://127.0.0.1:%d", ports[2])
	workerHTTP := fmt.Sprintf("http://127.0.0.1:%d", ports[3])

	// SIGTERM, not SIGKILL: the supervisor forwards termination to its
	// current worker child and then exits; a SIGKILLed supervisor would
	// orphan the respawned worker, which holds the test's output pipes.
	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning %v: %v", args, err)
		}
		t.Cleanup(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			go func() { cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-done
			}
		})
		return cmd
	}
	spawn("-worker", "-rank=0", "-peers="+mesh, "-epoch=9",
		fmt.Sprintf("-addr=127.0.0.1:%d", ports[2]), "-workers=1")
	spawn("-worker", "-rank=1", "-peers="+mesh, "-epoch=9",
		fmt.Sprintf("-addr=127.0.0.1:%d", ports[3]), "-workers=1",
		"-supervise", "-faults=crash@1:1")
	waitReady(t, leaderHTTP)
	waitReady(t, workerHTTP)

	// Two 24-rings joined by a bridge lighter than every singleton: the
	// certificate fails, so the run goes on past the gather into the
	// supersteps where the crash fires.
	g := gen.Dumbbell(24, 5, 3)
	uploadTo(t, leaderHTTP, "dumbbell48", g)
	uploadTo(t, workerHTTP, "dumbbell48", g)

	// First distributed run: the crash fault kills rank 1 at superstep 1
	// and the leader aborts with ErrPeerLost → 503 + Retry-After.
	resp, _ := queryMincut(t, leaderHTTP, "dumbbell48")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during crash: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 lacks Retry-After")
	}

	// An upload that lands while rank 1 is dead: catch-up must carry it
	// to the replacement.
	uploadTo(t, leaderHTTP, "missed", gen.Cycle(32, 2))

	// The supervisor respawns rank 1 (incarnation 2, fault spec
	// stripped); both ranks converge back to ready with identical
	// registries.
	waitReady(t, leaderHTTP)
	waitReady(t, workerHTTP)
	if lead, rep := graphListing(t, leaderHTTP), graphListing(t, workerHTTP); lead != rep {
		t.Fatalf("post-recovery registries differ:\nleader: %s\nworker: %s", lead, rep)
	}

	// The identical query now succeeds with the correct cut — proof the
	// degraded 503 was never cached and the mesh fully healed.
	resp, val := queryMincut(t, leaderHTTP, "dumbbell48")
	if resp.StatusCode != http.StatusOK || val == nil || *val != 3 {
		t.Fatalf("post-recovery mincut: status %d value %v, want 200/3", resp.StatusCode, val)
	}
	resp, val = queryMincut(t, leaderHTTP, "missed")
	if resp.StatusCode != http.StatusOK || val == nil || *val != 4 {
		t.Fatalf("post-recovery mincut on missed graph: status %d value %v, want 200/4", resp.StatusCode, val)
	}

	// The respawned rank rejoined under a bumped incarnation.
	var stats struct {
		Fleet struct {
			Peers []struct {
				Rank        int    `json:"rank"`
				Up          bool   `json:"up"`
				Incarnation uint64 `json:"incarnation"`
			} `json:"peers"`
		} `json:"fleet"`
	}
	sresp, err := http.Get(leaderHTTP + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(stats.Fleet.Peers) != 1 || !stats.Fleet.Peers[0].Up || stats.Fleet.Peers[0].Incarnation < 2 {
		t.Fatalf("leader fleet peers = %+v, want rank 1 up with incarnation >= 2", stats.Fleet.Peers)
	}
}
