package trace

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// snapshotRecord is the JSON wire form of a Record: durations in
// seconds, field names matching the profiling CSV columns.
type snapshotRecord struct {
	Input              string  `json:"input"`
	Seed               uint64  `json:"seed"`
	Trial              int     `json:"trial"`
	N                  int     `json:"n"`
	M                  int     `json:"m"`
	TimeSec            float64 `json:"time_sec"`
	MPITimeSec         float64 `json:"mpi_time_sec"`
	Algorithm          string  `json:"algorithm"`
	P                  int     `json:"p"`
	Result             uint64  `json:"result"`
	Supersteps         int     `json:"supersteps"`
	CommVolume         uint64  `json:"comm_volume"`
	AvoidedCollectives int     `json:"avoided_collectives,omitempty"`
	AvoidedCommVolume  uint64  `json:"avoided_comm_volume,omitempty"`
}

// Snapshot is a machine-readable benchmark snapshot: a named set of
// Records, e.g. one per benchmarked configuration, optionally carrying
// the serving layer's outcome aggregates (chaos suites archive these so
// injected-fault counts are diffable across runs).
type Snapshot struct {
	Name     string
	Records  []*Record
	Outcomes *CollectorSnapshot
}

type snapshotWire struct {
	Name     string             `json:"name"`
	Records  []snapshotRecord   `json:"records"`
	Outcomes *CollectorSnapshot `json:"outcomes,omitempty"`
}

// WriteJSON emits the snapshot as indented JSON, the format CI archives
// next to the benchstat output so regressions are diffable by machine.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	wire := snapshotWire{Name: s.Name, Records: make([]snapshotRecord, 0, len(s.Records)), Outcomes: s.Outcomes}
	for _, r := range s.Records {
		wire.Records = append(wire.Records, snapshotRecord{
			Input:              r.Input,
			Seed:               r.Seed,
			Trial:              r.Trial,
			N:                  r.N,
			M:                  r.M,
			TimeSec:            r.Time.Seconds(),
			MPITimeSec:         r.MPITime.Seconds(),
			Algorithm:          r.Algorithm,
			P:                  r.P,
			Result:             r.Result,
			Supersteps:         r.Supersteps,
			CommVolume:         r.CommVolume,
			AvoidedCollectives: r.AvoidedCollectives,
			AvoidedCommVolume:  r.AvoidedCommVolume,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(wire)
}

// ReadSnapshot parses a snapshot written by WriteJSON. Timings are
// recovered at microsecond granularity, matching the CSV round-trip.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var wire snapshotWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	s := &Snapshot{Name: wire.Name, Records: make([]*Record, 0, len(wire.Records)), Outcomes: wire.Outcomes}
	for _, w := range wire.Records {
		s.Records = append(s.Records, &Record{
			Input:              w.Input,
			Seed:               w.Seed,
			Trial:              w.Trial,
			N:                  w.N,
			M:                  w.M,
			Time:               secondsToDuration(w.TimeSec),
			MPITime:            secondsToDuration(w.MPITimeSec),
			Algorithm:          w.Algorithm,
			P:                  w.P,
			Result:             w.Result,
			Supersteps:         w.Supersteps,
			CommVolume:         w.CommVolume,
			AvoidedCollectives: w.AvoidedCollectives,
			AvoidedCommVolume:  w.AvoidedCommVolume,
		})
	}
	return s, nil
}

// WriteSnapshotFile writes the snapshot to path, creating or truncating
// the file.
func WriteSnapshotFile(path string, s *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// secondsToDuration converts %f-formatted seconds back to a Duration,
// rounding to the microsecond the format carries.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s*1e6+0.5) * time.Microsecond
}
