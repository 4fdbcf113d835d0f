package service

import (
	"bytes"
	"testing"
)

// FuzzQueryRequest throws arbitrary bytes at the /v1/query body decode
// and the normalization behind it, which run on every query before
// anything is admitted. Properties: neither panics, and every request
// normalize accepts carries tuning parameters the kernels can run
// without an unbounded allocation.
func FuzzQueryRequest(f *testing.F) {
	f.Add([]byte(`{"graph":"ring","algorithm":"approxcut","trials":100000000,"pipelined":true,"processors":1}`))
	f.Add([]byte(`{"graph":"g","algorithm":"cc","epsilon":2,"seed":7}`))
	f.Add([]byte(`{"graph":"g","algorithm":"mincut","success_prob":0.999,"max_trials":4}`))
	f.Add([]byte(`{"graph":"g","algorithm":"approxcut","trials":64,"epsilon":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req QueryRequest
		if err := decodeQuery(bytes.NewReader(data), &req); err != nil {
			return
		}
		p, err := normalize(&req)
		if err != nil {
			return
		}
		if p.Trials < 0 || p.Trials > maxTrials {
			t.Fatalf("accepted trials %d, want within [0, %d]", p.Trials, maxTrials)
		}
		if !(p.Epsilon >= 0 && p.Epsilon <= 2) {
			t.Fatalf("accepted epsilon %g, want within [0, 2]", p.Epsilon)
		}
		if !(p.SuccessProb > 0 && p.SuccessProb < 1) {
			t.Fatalf("accepted success_prob %g, want within (0, 1)", p.SuccessProb)
		}
	})
}
