package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is BENCHMARK.json as seen from the benchmark's directory,
// which run.sh, `go run .` and `go test` all use as working directory.
const specPath = "../BENCHMARK.json"

// metricSpec is one metric of BENCHMARK.json. The file is the single
// definition of metric names, units and bounds: a workload computes
// values by name and the emitter looks the rest up here.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", specPath, err)
	}
	return &s, nil
}

// unitOf finds a metric's unit in either list.
func (s *benchSpec) unitOf(name string) string {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// headline lists the nine end-to-end metrics of the issue in report
// order. The pipeline gates only those defined (and non-zero) on every
// workload — BENCHMARK.json's end_to_end; the rest are measured in the
// same untraced phase but listed under per_layer, where a workload
// that does not define one reports 0. See README.md.
var headline = []string{
	"setup_s", "latency_p50_ms", "latency_p90_ms", "latency_p1_p50_ms", "throughput_ops_s",
	"fail_share", "supersteps_p16", "comm_words_p16", "wire_bytes_per_op",
}
