package trace

import (
	"reflect"
	"testing"
	"time"
)

// fieldRows counts, per uint64 field of the struct *agg, the table
// accessors that point at it ("" collects accessors pointing elsewhere).
func fieldRows(agg interface{}, accessed []*uint64) map[string]int {
	rv := reflect.ValueOf(agg).Elem()
	names := make(map[uintptr]string)
	rows := make(map[string]int)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Uint64 {
			names[f.Addr().Pointer()] = rv.Type().Field(i).Name
			rows[rv.Type().Field(i).Name] = 0
		}
	}
	for _, p := range accessed {
		rows[names[reflect.ValueOf(p).Pointer()]]++
	}
	return rows
}

// TestTablesComplete is the guard behind "a counter is one field plus one
// row": every uint64 field of AlgoStats and TransportStats must be reached
// by exactly one table row, or be excluded here with its reason.
func TestTablesComplete(t *testing.T) {
	excluded := map[string]string{
		"Queries":        "bumped by every resolution, whatever its OutcomeTable row",
		"Retried":        "the one event outcome: counted alone, before any table is walked",
		"latencySamples": "the latency average's private denominator",
	}
	var (
		a        AlgoStats
		tr       TransportStats
		inA, inT []*uint64
	)
	for _, oc := range OutcomeTable {
		inA = append(inA, oc.Field(&a))
	}
	for _, c := range AlgoCounters {
		inA = append(inA, c.Field(&a))
	}
	for _, c := range TransportCounters {
		inT = append(inT, c.Field(&tr))
	}
	for name, n := range fieldRows(&a, inA) {
		want := 1
		if _, skip := excluded[name]; skip || name == "" {
			want = 0
		}
		if n != want {
			t.Errorf("AlgoStats.%s is reached by %d table rows, want %d: a resolution belongs in OutcomeTable, a kernel cost in AlgoCounters (collector.go)", name, n, want)
		}
	}
	for name, n := range fieldRows(&tr, inT) {
		want := 1
		if name == "" {
			want = 0
		}
		if n != want {
			t.Errorf("TransportStats.%s is reached by %d table rows, want %d: add it to TransportCounters (collector.go)", name, n, want)
		}
	}
}

var tcpRun = KernelStats{
	P: 2, Supersteps: 24, CommVolume: 24132, AvoidedCollectives: 3, AvoidedCommVolume: 4096,
	Transport: "tcp", WireBytes: 131072, WireRawBytes: 196608, Kernel: "kargerstein", TimeMs: 40, PredictedMs: 50,
}

// TestKernelCostsCountedOnce: only the executed sample folds the profile
// into the cost counters; a cache hit carrying the same stored profile
// moves max_p and nothing else.
func TestKernelCostsCountedOnce(t *testing.T) {
	c := NewCollector()
	c.Observe(QuerySample{Algorithm: "mincut", Outcome: OutcomeCacheHit, Kernel: &tcpRun})
	s := c.Snapshot()
	if got := s.Totals; got.MaxP != 2 || got.Supersteps != 0 || got.WireBytes != 0 || len(s.Transports)+len(s.Kernels) != 0 {
		t.Fatalf("cache hit folded kernel costs: %+v", s)
	}
	c.Observe(QuerySample{Algorithm: "mincut", Outcome: OutcomeExecuted, Kernel: &tcpRun})
	s = c.Snapshot()
	want := TransportStats{KernelExecutions: 1, Supersteps: 24, CommVolume: 24132, WireBytes: 131072, WireRawBytes: 196608}
	if s.Transports["tcp"] != want {
		t.Errorf("tcp aggregate = %+v, want %+v", s.Transports["tcp"], want)
	}
	if a := s.Algorithms["mincut"]; a.Supersteps != 24 || a.CommVolume != 24132 || a.AvoidedCollectives != 3 ||
		a.AvoidedCommVolume != 4096 || a.WireBytes != 131072 || a.WireRawBytes != 196608 {
		t.Errorf("mincut aggregate = %+v", a)
	}
	if k := s.Kernels["kargerstein"]; k != (KernelAgg{Executions: 1, TotalKernelMs: 40, TotalPredictedMs: 50}) {
		t.Errorf("kernel aggregate = %+v", k)
	}

	// The fleet merge is the same table walked once more.
	sum := want
	sum.Add(want)
	if sum != (TransportStats{KernelExecutions: 2, Supersteps: 48, CommVolume: 48264, WireBytes: 262144, WireRawBytes: 393216}) || sum.WireSaved() != 131072 {
		t.Errorf("Add = %+v", sum)
	}
}

// TestObserveAllocFree: after an algorithm's (and fabric's, and
// kernel's) first sample, Observe allocates nothing — it sits on the
// path of every query, cache hits included.
func TestObserveAllocFree(t *testing.T) {
	c := NewCollector()
	samples := []QuerySample{
		{Algorithm: "mincut", Outcome: OutcomeExecuted, Latency: 3 * time.Millisecond, QueueDepth: 2, Kernel: &tcpRun},
		{Algorithm: "mincut", Outcome: OutcomeCacheHit, Latency: 20 * time.Microsecond, Kernel: &tcpRun},
		{Algorithm: "mincut", Outcome: OutcomeRejected, QueueDepth: 9},
		{Algorithm: "mincut", Outcome: "no such outcome", Latency: time.Second},
	}
	observeAll := func() {
		for _, s := range samples {
			c.Observe(s)
		}
	}
	observeAll()
	if n := testing.AllocsPerRun(100, observeAll); n != 0 {
		t.Errorf("steady-state Observe allocates %v times per %d samples", n, len(samples))
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	c.Observe(QuerySample{Algorithm: "cc", Outcome: OutcomeExecuted, Latency: 10 * time.Millisecond, QueueDepth: 1,
		Kernel: &KernelStats{P: 4, Supersteps: 12, CommVolume: 100}})
	c.Observe(QuerySample{Algorithm: "cc", Outcome: OutcomeCacheHit, Latency: time.Millisecond})
	c.Observe(QuerySample{Algorithm: "cc", Outcome: OutcomeCoalesced, Latency: 9 * time.Millisecond})
	c.Observe(QuerySample{Algorithm: "mincut", Outcome: OutcomeRejected, QueueDepth: 7})
	c.Observe(QuerySample{Algorithm: "mincut", Outcome: OutcomeError, Latency: 2 * time.Millisecond})

	s := c.Snapshot()
	if s.Totals.Queries != 5 || s.Totals.KernelExecutions != 1 ||
		s.Totals.CacheHits != 1 || s.Totals.Coalesced != 1 ||
		s.Totals.Rejected != 1 || s.Totals.Errors != 1 {
		t.Errorf("totals = %+v", s.Totals)
	}
	cc := s.Algorithms["cc"]
	if cc.Queries != 3 || cc.KernelExecutions != 1 || cc.Supersteps != 12 || cc.CommVolume != 100 {
		t.Errorf("cc stats = %+v", cc)
	}
	if cc.MinLatencyMs != 1 || cc.MaxLatencyMs != 10 {
		t.Errorf("cc latency min/max = %v/%v", cc.MinLatencyMs, cc.MaxLatencyMs)
	}
	if cc.MaxP != 4 {
		t.Errorf("cc MaxP = %d", cc.MaxP)
	}
	if s.MaxQueueDepth != 7 {
		t.Errorf("max queue depth = %d", s.MaxQueueDepth)
	}

	// Rejections must not pollute the latency profile.
	mc := s.Algorithms["mincut"]
	if mc.MinLatencyMs != 2 || mc.MaxLatencyMs != 2 {
		t.Errorf("mincut latency min/max = %v/%v", mc.MinLatencyMs, mc.MaxLatencyMs)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				c.Observe(QuerySample{Algorithm: "cc", Outcome: OutcomeCacheHit})
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Snapshot().Totals.Queries; got != 8000 {
		t.Errorf("queries = %d, want 8000", got)
	}
}
