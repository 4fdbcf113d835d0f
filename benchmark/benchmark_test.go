package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.samples); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestQuantileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(sortedCopy(xs), 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"overlapping children count once", []interval{{120, 150}, {140, 160}}, 60},
		{"children clipped to the parent", []interval{{50, 110}, {190, 300}}, 80},
		{"child outside the parent", []interval{{300, 400}}, 100},
		{"child covering the parent", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestScheduleShares checks the generator against the mix it was given:
// algorithm, miss, upload and invalid shares, and the Zipf head.
func TestScheduleShares(t *testing.T) {
	mx := newServeMix(options{}, nil).mx
	g := newGenerator(mx, 7)
	const n = 200_000
	var queries, cc, approx, mincut, unique, uploads, invalid, hot float64
	for i := 0; i < n; i++ {
		o := g.nextOp()
		if o.ID != i {
			t.Fatalf("op %d has id %d", i, o.ID)
		}
		switch o.Kind {
		case opUpload:
			uploads++
			continue
		case opInvalid:
			invalid++
			continue
		}
		queries++
		switch o.Alg {
		case algCC:
			cc++
		case algApproxCut:
			approx++
		case algMinCut:
			mincut++
			if o.Graph >= mx.CutGraphs {
				t.Fatalf("mincut scheduled on graph %d, which has no exact oracle", o.Graph)
			}
		}
		if o.Seed >= uniqueSeedBase {
			unique++
		} else if o.Seed < 1 || o.Seed > uint64(mx.WarmSeeds) {
			t.Fatalf("warm seed %d outside 1..%d", o.Seed, mx.WarmSeeds)
		}
		if o.Graph == 0 && o.Alg != algMinCut {
			hot++
		}
	}
	zipfHead := zipfCDF(mx.Graphs, mx.ZipfS)[0]
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"upload share", uploads / n, mx.Upload},
		{"invalid share", invalid / n, mx.Invalid},
		{"cc share", cc / queries, mx.CC},
		{"approxcut share", approx / queries, mx.ApproxCut},
		{"mincut share", mincut / queries, 1 - mx.CC - mx.ApproxCut},
		{"unique-seed share", unique / queries, mx.Unique},
		{"hottest graph share", hot / (cc + approx), zipfHead},
	} {
		if math.Abs(c.got-c.want) > 0.01 {
			t.Errorf("%s = %.4f, want %.4f ± 0.01", c.name, c.got, c.want)
		}
	}
}

// TestFingerprint pins the seeding contract: same seed, same
// fingerprint; another seed (inputs or schedule), another fingerprint.
func TestFingerprint(t *testing.T) {
	mx := newServeMix(options{}, nil).mx
	graphs := func(seed uint64) []*graph.Graph {
		return []*graph.Graph{gen.WattsStrogatz(64, 4, 0.3, seed, gen.Config{})}
	}
	a := scheduleFingerprint("w", 1, graphs(1), &mx)
	if b := scheduleFingerprint("w", 1, graphs(1), &mx); a != b {
		t.Errorf("same seed: %s then %s", a, b)
	}
	if b := scheduleFingerprint("w", 2, graphs(1), &mx); a == b {
		t.Errorf("another schedule seed left the fingerprint at %s", a)
	}
	if b := scheduleFingerprint("w", 1, graphs(2), &mx); a == b {
		t.Errorf("other graphs left the fingerprint at %s", a)
	}
	// The benchmark's own generator must be a function of its seed.
	ba := func(seed uint64) string {
		return scheduleFingerprint("w", 1, []*graph.Graph{barabasiAlbert(500, 8, seed)}, nil)
	}
	if ba(3) != ba(3) || ba(3) == ba(4) {
		t.Errorf("barabasiAlbert: seed 3 twice gave %s and %s, seed 4 gave %s", ba(3), ba(3), ba(4))
	}
	if g := barabasiAlbert(500, 8, 3); g.M() != 8*9/2+(500-9)*8 || g.Validate() != nil {
		t.Errorf("barabasiAlbert(500, 8): m = %d, Validate = %v", g.M(), g.Validate())
	}
}

func TestOracles(t *testing.T) {
	ring, err := newTruth(gen.Cycle(16, 1), false) // min cut 2
	if err != nil {
		t.Fatal(err)
	}
	side := make([]bool, 16)
	side[3] = true
	for _, c := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"cc right", ring.checkCC(1), true},
		{"cc wrong", ring.checkCC(2), false},
		{"mincut exact", ring.checkMinCut(2, side, true), true},
		{"mincut side disagrees with value", ring.checkMinCut(3, side, false), false},
		{"mincut below the minimum", ring.checkMinCut(1, nil, false), false},
		{"capped mincut above the minimum", ring.checkMinCut(4, nil, false), true},
		{"full mincut above the minimum", ring.checkMinCut(4, nil, true), false},
		{"approxcut inside the bracket", ring.checkApproxCut(8), true},
		{"approxcut outside the bracket", ring.checkApproxCut(64), false},
		{"approxcut zero on a connected graph", ring.checkApproxCut(0), false},
	} {
		if (c.err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, c.err)
		}
	}
}

// TestQuickSmoke runs every workload at 1/100 scale, tracing off and
// on, and holds what the pipeline will read to BENCHMARK.json: the
// workload and metric names, each once, each with its unit.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and solves graphs")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, ms := range list {
			if seen[ms.Name] || ms.Unit == "" {
				t.Errorf("metric %q: listed twice or without a unit", ms.Name)
			}
			seen[ms.Name] = true
		}
	}
	for _, name := range headline {
		if !seen[name] {
			t.Errorf("headline metric %q is not in %s", name, specPath)
		}
	}

	produced := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, trace := range []int{0, 1} {
			var out, errOut bytes.Buffer
			dir := t.TempDir()
			args := []string{"-workload", w.Name, "-quick", "-trace", strconv.Itoa(trace), "-out", dir}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s trace=%d: last line is not the contract object: %v", w.Name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d\n%s", w.Name, trace, got.Correct, got.Attempted, got.Failed, out.String())
			}
			want := spec.EndToEnd
			if trace == 1 {
				want = spec.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, %s lists %d", w.Name, trace, len(got.Metrics), specPath, len(want))
			}
			for _, ms := range want {
				m, ok := got.Metrics[ms.Name]
				if !ok || m.Unit != ms.Unit {
					t.Errorf("%s trace=%d: metric %q missing or unit %q != %q", w.Name, trace, ms.Name, m.Unit, ms.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q = %v, must never be 0", w.Name, ms.Name, m.Value)
				}
			}
			// The result file holds only what the workload computed.
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", w.Name, trace)))
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}
			for name := range res.Metrics {
				produced[name] = true
			}
		}
	}
	for name := range seen {
		if !produced[name] {
			t.Errorf("no workload computes %q", name)
		}
	}
}
