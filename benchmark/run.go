package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// options is what one workload run needs to know.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	quick   bool // 1/100 scale smoke run
	outDir  string
}

// phaseLength is how long each timed phase measures. A traced run
// splits the budget between the untraced and the traced phase.
func (o options) phaseLength() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.quick {
		d = 300 * time.Millisecond
	}
	if o.trace {
		d /= 2
	}
	return d
}

// Set-up is repeated and its median reported, so that the first,
// cold-heap set-up of the process does not decide setup_s: at least
// minSetups times, and on up to maxSetups while all of them together
// have taken less than setupBudget — a 0.3 s set-up needs more
// repetitions than a 1 s one to read as steadily.
const (
	minSetups, maxSetups = 5, 11
	setupBudget          = 4 * time.Second
)

func (o options) moreSetups(done int, spent time.Duration) bool {
	if o.quick {
		return done < 1
	}
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

// size picks a full-scale or smoke-scale input size.
func (o options) size(full, quick int) int {
	if o.quick {
		return quick
	}
	return full
}

// metrics holds computed values by BENCHMARK.json name, with the
// sample count behind each (0 for counts and ratios of totals).
type metrics struct {
	val     map[string]float64
	samples map[string]int
}

func newMetrics() *metrics {
	return &metrics{val: map[string]float64{}, samples: map[string]int{}}
}

func (m *metrics) set(name string, v float64, samples int) {
	m.val[name] = v
	m.samples[name] = samples
}

// setMedian records the median of xs (nothing when xs is empty, so the
// metric reads 0: the layer did no work on this workload).
func (m *metrics) setMedian(name string, xs []float64) {
	if len(xs) > 0 {
		m.set(name, median(xs), len(xs))
	}
}

// phase is the outcome of one timed phase of any workload.
type phase struct {
	attempted int
	wrong     []string      // "op <id>: <reason>", every failed or wrongly answered op
	wall      time.Duration // first op start → last op end
	lat       []float64     // ms per timed op: p=2 solves, or HTTP round trips
	rates     []float64     // ops/s of each slice of the phase: one second of HTTP ops, or one batch cycle
	mem       memDelta

	solves []solveRec              // batch workloads: every library call
	ops    []opRec                 // HTTP workloads: every request
	stats  [2]*service.EngineStats // HTTP workloads, traced run: /v1/stats before and after the phase
}

// workload is one of the four benchmark workloads. setup builds inputs,
// oracles and the system under test and runs warm-up; run measures one
// timed phase; headline adds the end-to-end metrics only this workload
// defines; layers adds the per-layer metrics and probes of a traced run.
type workload interface {
	setup() error
	fingerprint() string
	run(d time.Duration) *phase
	headline(untraced *phase, m *metrics) error
	layers(traced *phase, m *metrics) error
	close()
}

func newWorkload(name string, o options, tr *tracer) (workload, error) {
	switch name {
	case "cc_batch":
		return newCCBatch(o, tr), nil
	case "mincut_batch":
		return newMinCutBatch(o, tr), nil
	case "serve_mix":
		return newServeMix(o, tr), nil
	case "fleet_tcp":
		return newFleetTCP(o, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is everything one run reports; it is also written to
// <out>/<workload>.trace<0|1>.json for the all-workloads report.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Fingerprint string             `json:"fingerprint"`
	Unstable    bool               `json:"unstable"`
	Header      map[string]string  `json:"header"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Wrong       []string           `json:"wrong,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Samples     map[string]int     `json:"samples"`
}

// endToEnd fills the headline metrics every workload shares from the
// untraced phase.
func endToEnd(m *metrics, setup []float64, ph *phase) {
	m.set("setup_s", median(setup), len(setup))
	m.setMedian("latency_p50_ms", ph.lat)
	if highestPercentile(len(ph.lat)) >= 90 {
		m.set("latency_p90_ms", quantile(sortedCopy(ph.lat), 0.9), len(ph.lat))
	}
	// The median slice, not total ÷ wall: a few seconds of a noisy
	// neighbour then cost nothing, and a real slowdown still shows.
	m.set("throughput_ops_s", median(ph.rates), len(ph.rates))
	m.set("fail_share", float64(len(ph.wrong))/float64(ph.attempted), ph.attempted)
}

// runWorkload is one complete run of one workload in this process.
func runWorkload(name string, o options, spec *benchSpec, log io.Writer) (*result, error) {
	runtime.GOMAXPROCS(2) // the box the sizes were chosen on has 2 cores; never derived from the machine
	res := &result{
		Workload: name, Seed: o.seed, Trace: o.trace,
		Unstable: runtime.NumCPU() < 2,
		Header: map[string]string{
			"nproc":      strconv.Itoa(runtime.NumCPU()),
			"gomaxprocs": "2",
			"go":         runtime.Version(),
			"commit":     commit(),
		},
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var w workload
	var setup []float64
	for begin := time.Now(); o.moreSetups(len(setup), time.Since(begin)); {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, o, tr); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer w.close()
	res.Fingerprint = w.fingerprint()
	fmt.Fprintf(log, "# %s seed=%d trace=%t fingerprint=%s nproc=%s gomaxprocs=2 %s commit=%s",
		name, o.seed, o.trace, res.Fingerprint, res.Header["nproc"], res.Header["go"], res.Header["commit"])
	if res.Unstable {
		fmt.Fprint(log, " UNSTABLE(nproc<2)")
	}
	fmt.Fprintln(log)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	m := newMetrics()
	runtime.GC()
	untraced := w.run(o.phaseLength())
	endToEnd(m, setup, untraced)
	if err := w.headline(untraced, m); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Attempted, res.Wrong = untraced.attempted, untraced.wrong
	if o.trace {
		runtime.GC()
		tr.on.Store(true)
		traced := w.run(o.phaseLength())
		tr.on.Store(false)
		res.Attempted += traced.attempted
		res.Wrong = append(res.Wrong, traced.wrong...)
		perOp := func(ph *phase) float64 { return ph.wall.Seconds() / float64(ph.attempted) }
		m.set("trace.overhead_share", perOp(traced)/perOp(untraced)-1, traced.attempted)
		if err := w.layers(traced, m); err != nil {
			return nil, fmt.Errorf("%s layer probes: %w", name, err)
		}
		procMetrics(m, untraced)
		if err := tr.writeSpans(filepath.Join(o.outDir, name+".spans.json")); err != nil {
			return nil, err
		}
	}
	res.Failed = len(res.Wrong)
	res.Metrics, res.Samples = m.val, m.samples

	for name := range m.val {
		if spec.unitOf(name) == "" {
			return nil, fmt.Errorf("metric %q is not in %s", name, specPath)
		}
	}
	report(log, res, spec)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	file := fmt.Sprintf("%s.trace%d.json", name, btoi(o.trace))
	return res, os.WriteFile(filepath.Join(o.outDir, file), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is stamped by run.sh; the pipeline's checkout is not a git
// repository, so there it reads "unknown".
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// report prints the run for a reader: every metric this workload
// defines, with unit and sample count, and the failed ops by id.
func report(w io.Writer, res *result, spec *benchSpec) {
	printed := map[string]bool{}
	line := func(name, unit string, always bool) {
		if printed[name] {
			return
		}
		printed[name] = true
		if v, ok := res.Metrics[name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %-9s n=%d\n", name, v, unit, res.Samples[name])
		} else if always {
			fmt.Fprintf(w, "%-34s %14s %-9s\n", name, "n/a", unit)
		}
	}
	for _, name := range headline {
		line(name, spec.unitOf(name), true)
	}
	if res.Trace {
		for _, ms := range spec.PerLayer {
			line(ms.Name, ms.Unit, false)
		}
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for i, line := range res.Wrong {
		if i == 20 {
			fmt.Fprintf(w, "  … %d more in the result file\n", len(res.Wrong)-i)
			break
		}
		fmt.Fprintln(w, "  "+line)
	}
}

// contractLine is the last line of standard output the pipeline reads:
// with tracing off every end_to_end metric, with tracing on every
// per_layer metric (0 where this workload never enters the layer).
func contractLine(res *result, spec *benchSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := spec.EndToEnd
	if res.Trace {
		list = spec.PerLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	var missing []string
	for _, ms := range list {
		v, ok := res.Metrics[ms.Name]
		if !ok && !res.Trace {
			missing = append(missing, ms.Name)
		}
		out.Metrics[ms.Name] = value{v, ms.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("workload %s did not produce end-to-end metrics %s", res.Workload, strings.Join(missing, ", "))
	}
	line, err := json.Marshal(out)
	return string(line), err
}
