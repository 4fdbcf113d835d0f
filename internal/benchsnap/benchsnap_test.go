package benchsnap

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	s := &Snapshot{Name: "demo"}
	s.Add(Exact, "supersteps/cc/p=4", 6, -1, 0)
	s.Add(Count, "allocs_op", 4, -1, 2)
	s.Add(Ratio, "speedup", 11.07, +1, 0)
	s.Add(Info, "time_sec", 9.8e-5, -1, 0)
	path := filepath.Join(t.TempDir(), "BENCH_demo.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("read back %+v, wrote %+v", got, s)
	}
	if got.Metrics[1].Tol != 0.15 || got.Metrics[2].Tol != 0.40 || got.Metrics[0].Tol != 0 {
		t.Fatalf("kind tolerances not applied: %+v", got.Metrics)
	}
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != len(s.Metrics)+5 {
		t.Fatalf("want one line per metric, got %d lines:\n%s", n, data)
	}

	s.Add(Info, "nan", math.NaN(), 0, 0)
	if err := s.Write(path); err == nil {
		t.Fatal("wrote a NaN metric")
	}
}

func TestReadRejects(t *testing.T) {
	for name, body := range map[string]string{
		"unknown field": `{"name":"x","metrics":[{"id":"a","value":1,"kind":"exact","critical":true}]}`,
		"unknown kind":  `{"name":"x","metrics":[{"id":"a","value":1,"kind":"exactly"}]}`,
		"no kind":       `{"name":"x","metrics":[{"id":"a","value":1}]}`,
		"duplicate id":  `{"name":"x","metrics":[{"id":"a","value":1,"kind":"exact"},{"id":"a","value":2,"kind":"info"}]}`,
		"empty id":      `{"name":"x","metrics":[{"value":1,"kind":"exact"}]}`,
		"ratio, no tol": `{"name":"x","metrics":[{"id":"a","value":1,"kind":"ratio","better":1}]}`,
		"count, no dir": `{"name":"x","metrics":[{"id":"a","value":1,"kind":"count","tol":0.15}]}`,
		"old schema":    `{"name":"bsp-bench","records":[{"algorithm":"cc","p":4,"supersteps":6}]}`,
	} {
		path := filepath.Join(t.TempDir(), "BENCH_x.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}
