// Package trace records per-execution metrics in the artifact's CSV
// output format (§A.5, Listing 1): a profiling line with input identity,
// seed, parallelism, timings, and the summarized result.
package trace

import (
	"fmt"
	"io"
	"time"
)

// Record is one execution's metrics.
type Record struct {
	Input      string        // input description, e.g. "er_1500_32"
	Seed       uint64        // PRNG seed of the run
	Trial      int           // repetition index
	N          int           // vertices
	M          int           // edges
	Time       time.Duration // total execution time
	MPITime    time.Duration // communication ("MPI") time
	Algorithm  string        // cc | approx_cut | mincut | ...
	P          int           // processors
	Result     uint64        // cut value or component count
	Supersteps int
	CommVolume uint64
	// AvoidedCollectives / AvoidedCommVolume record communication the run
	// skipped by consuming precomputed plan facts (0 on cold runs). They
	// ride the JSON snapshot, not the artifact-format CSV line, whose
	// column set is fixed by the paper.
	AvoidedCollectives int
	AvoidedCommVolume  uint64
}

// WriteProfile emits the artifact-style profiling CSV line.
func (r *Record) WriteProfile(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%f,%f,%s,%d,%d,%d,%d\n",
		r.Input, r.Seed, r.Trial, r.N, r.M,
		r.Time.Seconds(), r.MPITime.Seconds(), r.Algorithm, r.P,
		r.Result, r.Supersteps, r.CommVolume)
	return err
}
