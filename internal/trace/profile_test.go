package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestProfileRoundTrip(t *testing.T) {
	recs := []*Record{
		{
			Input: "er_1500_32", Seed: 42, Trial: 3, N: 1500, M: 24000,
			Time: 428972 * time.Microsecond, MPITime: 11905 * time.Microsecond,
			Algorithm: "mincut", P: 8, Result: 17, Supersteps: 121, CommVolume: 98765,
		},
		{
			Input: "rmat_12", Seed: 1, Trial: 0, N: 4096, M: 65536,
			Time: 0, MPITime: 0,
			Algorithm: "cc", P: 1, Result: 3, Supersteps: 0, CommVolume: 0,
		},
	}
	for _, want := range recs {
		var buf bytes.Buffer
		if err := want.WriteProfile(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParseProfile(buf.String())
		if err != nil {
			t.Fatalf("parse %q: %v", buf.String(), err)
		}
		if *got != *want {
			t.Errorf("round trip changed record:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestParseProfileErrors(t *testing.T) {
	cases := []string{
		"",                                   // empty
		"a,b,c",                              // too few fields
		"in,x,1,10,20,0.1,0.0,cc,1,1,1,1",    // bad seed
		"in,1,1,10,20,zz,0.0,cc,1,1,1,1",     // bad time
		"in,1,1,10,20,-0.5,0.0,cc,1,1,1,1",   // negative time
		"in,1,1,10,20,0.1,0.0,cc,1,1,1,1,99", // too many fields
	}
	for _, c := range cases {
		if _, err := ParseProfile(c); err == nil {
			t.Errorf("line %q: expected error", c)
		}
	}
}

func TestReadProfiles(t *testing.T) {
	var buf bytes.Buffer
	(&Counters{Rank: 0, Accesses: 5, Misses: 1, Instructions: 9}).WriteCounters(&buf)
	r1 := &Record{Input: "a", Seed: 1, N: 10, M: 20, Time: time.Millisecond,
		Algorithm: "cc", P: 2, Result: 1, Supersteps: 4, CommVolume: 12}
	r2 := &Record{Input: "b", Seed: 2, N: 30, M: 40, Time: 2 * time.Millisecond,
		Algorithm: "mincut", P: 4, Result: 7, Supersteps: 9, CommVolume: 34}
	r1.WriteProfile(&buf)
	buf.WriteString("\n# trailing comment\n")
	r2.WriteProfile(&buf)

	recs, err := ReadProfiles(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Input != "a" || recs[1].Input != "b" || recs[1].Result != 7 {
		t.Errorf("records = %+v, %+v", recs[0], recs[1])
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
