package main

// The -supervise mode: a tiny process supervisor that keeps one camcd
// worker alive. The supervisor re-execs itself with -supervise stripped
// and an explicit -incarnation, so a respawned worker rejoins the mesh
// under the same rank with a bumped incarnation number — the surviving
// ranks drain the dead connection and admit the replacement instead of
// rejecting it as a stale duplicate.
//
// Exit-code protocol: transport.CrashExitCode (86) marks a
// fault-injected hard crash (the crash@rank:superstep chaos kind). The
// supervisor recognizes it and respawns WITHOUT the fault spec —
// otherwise the chaos rule would re-fire on the replacement and the
// fleet would crash-loop instead of demonstrating recovery. Any other
// non-zero exit is an organic crash and respawns with flags unchanged.

import (
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/backoff"
	"repro/internal/faults"
	"repro/internal/transport"
)

const (
	superviseBackoffBase = 250 * time.Millisecond
	superviseBackoffCap  = 5 * time.Second
	// A child that survives this long resets the respawn backoff: it was
	// a working process that died, not a start-up crash loop.
	superviseStableAfter = 10 * time.Second
)

// runSupervisor spawns the worker child and respawns it on crash,
// bumping -incarnation each generation. Returns (never) on a clean
// child exit via os.Exit with the child's status.
func runSupervisor(baseIncarnation uint64) {
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("supervise: resolving own binary: %v", err)
	}
	inc := baseIncarnation
	if inc == 0 {
		inc = 1
	}

	// Forward termination signals to the current child and stop
	// respawning: an operator's ctrl-C must take the pair down.
	var child atomic.Pointer[os.Process]
	var quitting atomic.Bool
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		quitting.Store(true)
		if p := child.Load(); p != nil {
			p.Signal(s)
		}
	}()

	stripFaults := false
	respawn := backoff.New(superviseBackoffBase, superviseBackoffCap, int64(inc))
	crashes := 0 // consecutive start-up crashes: the backoff attempt
	for generation := 1; ; generation++ {
		args := childArgs(os.Args[1:], inc, stripFaults)
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if stripFaults {
			cmd.Env = envWithout(faults.EnvVar)
		}
		log.Printf("supervise: generation %d, incarnation %d", generation, inc)
		start := time.Now()
		if err := cmd.Start(); err != nil {
			log.Fatalf("supervise: spawning worker: %v", err)
		}
		child.Store(cmd.Process)
		err = cmd.Wait()
		child.Store(nil)
		code := cmd.ProcessState.ExitCode()
		if err == nil || quitting.Load() {
			log.Printf("supervise: worker exited (status %d), done", code)
			os.Exit(max(code, 0))
		}
		if code == transport.CrashExitCode {
			log.Printf("supervise: worker died from an injected crash (status %d); respawning without the fault spec", code)
			stripFaults = true
		} else {
			log.Printf("supervise: worker died: %v", err)
		}
		if time.Since(start) > superviseStableAfter {
			crashes = 0
		}
		inc++
		wait := respawn.Delay(crashes)
		crashes++
		log.Printf("supervise: respawning as incarnation %d in %v", inc, wait)
		time.Sleep(wait)
	}
}

// childArgs rewrites the supervisor's own argv for the child: strip
// -supervise and any prior -incarnation, optionally strip -faults, then
// pin the child's incarnation.
func childArgs(argv []string, inc uint64, stripFaults bool) []string {
	drop := map[string]bool{"supervise": true, "incarnation": true}
	if stripFaults {
		drop["faults"] = true
	}
	out := make([]string, 0, len(argv)+1)
	for i := 0; i < len(argv); i++ {
		arg := argv[i]
		name, hasValue := flagName(arg)
		if name != "" && drop[name] {
			// Boolean flags ("-supervise") never consume the next arg;
			// value flags without '=' ("-incarnation 3") do.
			if !hasValue && name != "supervise" && i+1 < len(argv) && !strings.HasPrefix(argv[i+1], "-") {
				i++
			}
			continue
		}
		out = append(out, arg)
	}
	return append(out, "-incarnation="+strconv.FormatUint(inc, 10), "-supervised")
}

// flagName extracts the bare flag name from "-name", "--name" or
// "-name=value" arguments; non-flag arguments return "".
func flagName(arg string) (name string, hasValue bool) {
	if !strings.HasPrefix(arg, "-") {
		return "", false
	}
	name = strings.TrimLeft(arg, "-")
	if eq := strings.IndexByte(name, '='); eq >= 0 {
		return name[:eq], true
	}
	return name, false
}

// envWithout returns the process environment minus one variable.
func envWithout(key string) []string {
	env := os.Environ()
	out := env[:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, key+"=") {
			out = append(out, kv)
		}
	}
	return out
}
