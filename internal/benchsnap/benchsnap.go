// Package benchsnap is the one schema of every committed BENCH_*.json:
// a flat list of metrics, each carrying its own gate. The bench writers
// declare what a number is; cmd/benchgate only joins a fresh list with
// the committed one by ID and applies the committed side's gate, so
// loosening a gate is a diff to a baseline file.
package benchsnap

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Kind says how a metric gates.
type Kind string

const (
	Exact Kind = "exact" // fixed input and seed: any change is a regression
	Count Kind = "count" // a count that may wobble: gated at Tol, minus Abs slack
	Ratio Kind = "ratio" // same-process timing ratio: machine speed divides out
	Info  Kind = "info"  // wall clock or model-dependent: reported, never gated
)

// tol is the tolerated fractional change in the harmful direction.
var tol = map[Kind]float64{Count: 0.15, Ratio: 0.40}

// Metric is one measured value and its gate. Better is +1 when higher
// is better, -1 when lower is. Abs, when > 0, is an absolute-change
// floor under which a Count or Ratio never regresses.
type Metric struct {
	ID     string  `json:"id"`
	Value  float64 `json:"value"`
	Kind   Kind    `json:"kind"`
	Better int     `json:"better,omitempty"`
	Tol    float64 `json:"tol,omitempty"`
	Abs    float64 `json:"abs,omitempty"`
}

// Snapshot is one BENCH_<name>.json.
type Snapshot struct {
	Name    string   `json:"name"`
	Metrics []Metric `json:"metrics"`
}

// Add appends a metric; its tolerance follows from its kind.
func (s *Snapshot) Add(k Kind, id string, v float64, better int, abs float64) {
	s.Metrics = append(s.Metrics, Metric{ID: id, Value: v, Kind: k, Better: better, Tol: tol[k], Abs: abs})
}

// Write stores s at path, one metric per line so a changed gate or value
// is a one-line diff.
func (s *Snapshot) Write(path string) error {
	lines := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		line, err := json.Marshal(m) // rejects NaN and ±Inf
		if err != nil {
			return fmt.Errorf("%s: metric %s: %w", path, m.ID, err)
		}
		lines[i] = "    " + string(line)
	}
	out := fmt.Sprintf("{\n  \"name\": %q,\n  \"metrics\": [\n%s\n  ]\n}\n", s.Name, strings.Join(lines, ",\n"))
	return os.WriteFile(path, []byte(out), 0o644)
}

// Read strictly decodes a snapshot: unknown fields, unknown kinds,
// duplicate IDs and a Count or Ratio without direction or tolerance are
// errors, so a typo in a committed baseline cannot silently ungate it.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := new(Snapshot)
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range s.Metrics {
		banded := m.Kind == Count || m.Kind == Ratio
		switch {
		case m.ID == "" || seen[m.ID]:
			return nil, fmt.Errorf("%s: empty or duplicate metric id %q", path, m.ID)
		case !banded && m.Kind != Exact && m.Kind != Info:
			return nil, fmt.Errorf("%s: metric %s: unknown kind %q", path, m.ID, m.Kind)
		case banded && (m.Tol <= 0 || m.Better*m.Better != 1):
			return nil, fmt.Errorf("%s: metric %s: kind %s needs tol > 0 and better = ±1", path, m.ID, m.Kind)
		}
		seen[m.ID] = true
	}
	return s, nil
}

// Main is a TestMain body: it runs the package's tests and, when they
// passed and -test.bench was set, has fill measure into a snapshot named
// after path (BENCH_<name>.json) and writes it there. It returns the
// exit code, so two snapshots chain by passing one Main as the next's
// run. CAMC_NO_BENCH_SNAPSHOT skips the write so a profiling run can
// benchmark one combination without paying for fill's full sweep.
func Main(run func() int, path string, fill func(*Snapshot) error) int {
	code := run()
	f := flag.Lookup("test.bench")
	if code != 0 || f == nil || f.Value.String() == "" || os.Getenv("CAMC_NO_BENCH_SNAPSHOT") != "" {
		return code
	}
	s := &Snapshot{Name: strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")}
	err := fill(s)
	if err == nil {
		err = s.Write(path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench snapshot:", err)
		return 1
	}
	return code
}
