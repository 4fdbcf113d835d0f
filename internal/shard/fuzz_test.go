package shard

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
)

// FuzzCatchupSync throws arbitrary CONTROL payloads at a peer's catch-up
// path — the one message a rejoining rank applies to its registry
// wholesale. A payload is decoded as handleControl decodes it, and a
// "sync" message runs applyCatchup synchronously on a worker with an
// engine holding one graph ("held", version 3) and an open mesh gate.
// Properties: nothing panics; every graph catch-up registered sits at
// exactly a shipped version, holding the content of an edge list shipped
// under that name and version; no version moves backwards; and the
// worker ends caught up.
func FuzzCatchupSync(f *testing.F) {
	var cycle bytes.Buffer
	if err := graph.WriteEdgeList(&cycle, gen.Cycle(8, 2)); err != nil {
		f.Fatal(err)
	}
	for _, sync := range [][]syncGraph{
		{{Name: "a", Version: 2, Data: cycle.String()}},
		{{Name: "held", Version: 2, Data: cycle.String()}, {Name: "held", Version: 5, Data: cycle.String()}},
		{{Name: "a", Version: 1, Data: "2 1\n0 7 1\n"}, {Name: "", Version: 1, Data: cycle.String()}, {Name: "b", Data: cycle.String()}},
		{{Name: "a", Version: 4, Data: cycle.String()}, {Name: "a", Version: 4, Data: "3 1\n0 1 1\n"}},
	} {
		payload, err := json.Marshal(ctrlMsg{Type: "sync", Sync: sync})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"type":"start","graph":"held","version":3}`))
	f.Add([]byte(`{"type":"sync","sync":[{"name":"a","version":1,"data":"1 0\n"}]}garbage`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var msg ctrlMsg
		if err := json.Unmarshal(payload, &msg); err != nil || msg.Type != "sync" {
			return
		}
		e := service.NewEngine(service.Config{Workers: 1})
		defer e.Close()
		held, err := e.Registry().PutVersion("held", 3, gen.Cycle(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		w := &Worker{engine: e, meshUp: make(chan struct{})}
		close(w.meshUp)
		w.applyCatchup(msg)

		if !w.caughtUp.Load() {
			t.Fatal("catch-up left the worker not caught up")
		}
		if got := w.catchupRecv.Load(); got > uint64(len(msg.Sync)) {
			t.Fatalf("counted %d graphs received of %d shipped", got, len(msg.Sync))
		}
		for _, sg := range e.Registry().List() {
			if sg == held {
				continue
			}
			if sg.Name == "held" && sg.Version <= held.Version {
				t.Fatalf("held moved from version %d to %d", held.Version, sg.Version)
			}
			if !shipped(msg.Sync, sg) {
				t.Fatalf("%q at version %d (fingerprint %016x) matches no shipped graph",
					sg.Name, sg.Version, sg.Snap.Fingerprint())
			}
		}
	})
}

// shipped reports whether some entry of sync carries sg's name, version
// and content.
func shipped(sync []syncGraph, sg *service.StoredGraph) bool {
	for _, s := range sync {
		if s.Name != sg.Name || s.Version != sg.Version {
			continue
		}
		if g, err := graph.ReadEdgeList(strings.NewReader(s.Data)); err == nil && g.Snapshot().Fingerprint() == sg.Snap.Fingerprint() {
			return true
		}
	}
	return false
}
