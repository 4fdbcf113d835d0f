// Command benchmark is the repository's end-to-end benchmark: four seeded
// workloads (two on the library path, two over HTTP), each run in its
// own process pinned to GOMAXPROCS=2, every answer checked against a
// sequential reference. With tracing off it reports the end-to-end
// metrics; a traced run adds the per-layer table, measured from outside
// the program: spans around calls into its handlers, fields it already
// returns, and direct probes of single packages. BENCHMARK.json at the
// repository root defines the metric names, units and bounds; README.md
// here explains the workloads and how the layers map to the headline
// numbers.
//
//	bash benchmark/run.sh                         # all four workloads, tracing off
//	bash benchmark/run.sh -trace 1                # … then the traced run and probes
//	bash benchmark/run.sh -workload serve_mix     # one workload (the pipeline's form)
//	bash benchmark/run.sh -selfcheck              # two sets of three runs must agree within the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "run this one workload in this process (default: each workload in a child process)")
		seed       = fs.Uint64("seed", 1, "schedule seed: same seed, same graphs and requests")
		seconds    = fs.Int("seconds", 0, "length of a run's timed part (default: run_seconds of BENCHMARK.json)")
		trace      = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: split the time between an untraced and a traced phase, then probe the layers")
		quick      = fs.Bool("quick", false, "1/100-scale smoke run: tiny graphs, 0.3 s phases, one set-up")
		outDir     = fs.String("out", "out", "directory for result files and spans")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the workload process to this file (with -workload)")
		selfcheck  = fs.Bool("selfcheck", false, "run every workload -sets times in alternating order, as two sets of runs, and hold the end-to-end metrics to their bounds")
		sets       = fs.Int("sets", 6, "selfcheck: runs of every workload; the first half is compared with the second")
		seedStep   = fs.Uint64("seedstep", 0, "selfcheck: add this to the seed from one run to the next (0: identical inputs, so counts and fingerprints must repeat)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: *outDir}

	switch {
	case *selfcheck:
		err = selfCheck(o, spec, *sets, *seedStep, stdout)
	case *name != "":
		err = runOne(*name, o, spec, *cpuprofile, stdout)
	default:
		err = runAll(o, spec, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne is the pipeline's form: one workload in this process, the
// contract's JSON object as the last line of standard output.
func runOne(name string, o options, spec *benchSpec, cpuprofile string, stdout io.Writer) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runWorkload(name, o, spec, stdout)
	if err != nil {
		return err
	}
	line, err := contractLine(res, spec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, line)
	return err
}

// child runs one workload in a fresh process — no heap, caches or pooled
// machines carried over from the workload before — and returns its
// result file.
func child(name string, o options, stdout io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(btoi(o.trace)), "-out", o.outDir,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	// Everything but the machine-readable last line is for the reader.
	out := bytes.TrimRight(buf.Bytes(), "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		stdout.Write(out[:i+1])
	}
	data, err := os.ReadFile(filepath.Join(o.outDir, fmt.Sprintf("%s.trace%d.json", name, btoi(o.trace))))
	if err != nil {
		return nil, err
	}
	var res result
	return &res, json.Unmarshal(data, &res)
}

// runAll runs every workload of BENCHMARK.json, tracing off, then (with
// -trace 1) again traced, and ends with the headline table.
func runAll(o options, spec *benchSpec, stdout io.Writer) error {
	traced := o.trace
	o.trace = false
	var results []*result
	failed := 0
	for _, w := range spec.Workloads {
		res, err := child(w.Name, o, stdout)
		if err != nil {
			return err
		}
		results = append(results, res)
		failed += res.Failed
	}
	if traced {
		o.trace = true
		for _, w := range spec.Workloads {
			res, err := child(w.Name, o, stdout)
			if err != nil {
				return err
			}
			failed += res.Failed
		}
	}
	fmt.Fprintf(stdout, "\n%-20s", "end to end")
	for _, res := range results {
		fmt.Fprintf(stdout, " %14s", res.Workload)
	}
	fmt.Fprintln(stdout)
	for _, name := range headline {
		fmt.Fprintf(stdout, "%-20s", name)
		for _, res := range results {
			if v, ok := res.Metrics[name]; ok {
				fmt.Fprintf(stdout, " %14.6g", v)
			} else {
				fmt.Fprintf(stdout, " %14s", "n/a")
			}
		}
		fmt.Fprintf(stdout, "  %s\n", spec.unitOf(name))
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed or were answered wrongly", failed)
	}
	return nil
}
