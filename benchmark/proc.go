package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// memDelta is what a timed phase cost the Go heap.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcPauseNs  uint64
}

// memMark is the heap's counters at the start of a phase.
type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (m *memMark) delta() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		allocBytes: now.TotalAlloc - m.TotalAlloc,
		mallocs:    now.Mallocs - m.Mallocs,
		gcPauseNs:  now.PauseTotalNs - m.PauseTotalNs,
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM) from
// /proc/self/status; 0 where the file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procMetrics reports the whole workload process. In the HTTP
// workloads that includes the load generator, which shares it.
func procMetrics(m *metrics, untraced *phase) {
	ops := float64(untraced.attempted)
	m.set("proc.peak_rss_mb", peakRSSMB(), 0)
	m.set("proc.alloc_mb_per_op", float64(untraced.mem.allocBytes)/(1<<20)/ops, untraced.attempted)
	m.set("proc.mallocs_per_op", float64(untraced.mem.mallocs)/ops, untraced.attempted)
	m.set("proc.gc_pause_ms", float64(untraced.mem.gcPauseNs)/1e6, 0)
}
