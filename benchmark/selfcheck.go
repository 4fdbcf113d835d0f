package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
)

// exactMetrics must repeat to the digit between runs on one seed.
var exactMetrics = []string{"supersteps_p16", "comm_words_p16"}

// selfCheck runs every workload sets times (tracing off, the order
// reversed on every other set so that no workload always follows the
// same neighbour), and holds each end-to-end metric to its bound: the
// second half's median may not be worse than the first half's by more
// than the bound, and from ten sets on — the pipeline's own test — the
// interquartile spread may not exceed it either (the quartiles of fewer
// runs are printed, but they are nearly the extremes). With -seedstep 0 all sets share one seed,
// so fingerprints and exact counts must be identical too.
func selfCheck(o options, spec *benchSpec, sets int, seedStep uint64, stdout io.Writer) error {
	if sets < 2 {
		return fmt.Errorf("selfcheck needs at least 2 sets, got %d", sets)
	}
	o.trace = false
	runs := map[string][]*result{}
	for set := 0; set < sets; set++ {
		so := o
		so.seed = o.seed + uint64(set)*seedStep
		for i := range spec.Workloads {
			w := spec.Workloads[i]
			if set%2 == 1 {
				w = spec.Workloads[len(spec.Workloads)-1-i]
			}
			res, err := child(w.Name, so, io.Discard)
			if err != nil {
				return err
			}
			runs[w.Name] = append(runs[w.Name], res)
		}
	}

	breaches := 0
	breach := func(format string, args ...any) {
		breaches++
		fmt.Fprintf(stdout, "BREACH "+format+"\n", args...)
	}
	if runtime.NumCPU() < 2 {
		breach("nproc = %d: the workloads are sized for 2 cores, timings are unstable", runtime.NumCPU())
	}
	fmt.Fprintf(stdout, "%-14s %-20s %12s %12s %12s %9s %9s %7s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "drift", "bound")
	for _, w := range spec.Workloads {
		rs := runs[w.Name]
		for _, ms := range spec.EndToEnd {
			var vals []float64
			for _, r := range rs {
				vals = append(vals, r.Metrics[ms.Name])
			}
			first, second := median(vals[:sets/2]), median(vals[sets/2:])
			drift := (second - first) / first // > 0: the second half is worse
			if ms.Better == "higher" {
				drift = -drift
			}
			q1, q2, q3 := quartiles(vals)
			sp := math.NaN() // quartiles of fewer than four runs say nothing
			if sets >= 4 {
				sp = spread(vals)
			}
			spreadBinds := sets >= 10 && ms.Name != "setup_s"
			fmt.Fprintf(stdout, "%-14s %-20s %12.6g %12.6g %12.6g %9.4f %+9.4f %7.2f\n",
				w.Name, ms.Name, q1, q2, q3, sp, drift, ms.Bound)
			if drift > ms.Bound {
				breach("%s %s: second half worse than first by %.4f > %.2f", w.Name, ms.Name, drift, ms.Bound)
			}
			if spreadBinds && sp > ms.Bound {
				breach("%s %s: spread %.4f > %.2f", w.Name, ms.Name, sp, ms.Bound)
			}
		}
		for _, r := range rs {
			if r.Failed > 0 {
				breach("%s seed %d: %d of %d ops failed", w.Name, r.Seed, r.Failed, r.Attempted)
			}
			if seedStep != 0 {
				continue
			}
			if r.Fingerprint != rs[0].Fingerprint {
				breach("%s: schedule fingerprint %s, first run had %s", w.Name, r.Fingerprint, rs[0].Fingerprint)
			}
			for _, name := range exactMetrics {
				if r.Metrics[name] != rs[0].Metrics[name] {
					breach("%s %s: %v, first run had %v", w.Name, name, r.Metrics[name], rs[0].Metrics[name])
				}
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d breaches", breaches)
	}
	fmt.Fprintln(stdout, "selfcheck: ok")
	return nil
}
