// Package planner implements the cost-model query planner: per
// (snapshot, algorithm, params) it scores the algorithm's one kernel at
// each candidate machine size p with §5's fitted performance model
// T = A·Comp + B·Volume·log₂p + C·Supersteps + D and runs it at the
// cheapest. Model constants are fitted per kernel from a startup
// calibration suite (calibrate.go) run on the machine the daemon serves
// from.
//
// The planner never affects results — a kernel's answer does not depend
// on p (bit-identical CC labels, identical cut values; see the
// equivalence tests in internal/cc and internal/service) — only which
// machine shape computes them.
package planner

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/perfmodel"
)

// Mode selects the planner behavior.
type Mode string

const (
	// ModeOff disables planning: every query runs its algorithm's kernel
	// at the heuristic p.
	ModeOff Mode = "off"
	// ModeStatic plans from the models fitted by the startup calibration.
	ModeStatic Mode = "static"
)

// ParseMode parses a -planner flag value. The empty string is ModeOff.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeOff:
		return ModeOff, nil
	case ModeStatic:
		return ModeStatic, nil
	}
	return ModeOff, fmt.Errorf("planner: unknown mode %q (want off|static)", s)
}

// Decision is the planner's answer for one query: the machine size p,
// with the prediction that justified it.
type Decision struct {
	P           int
	PredictedMs float64
	// Fallback marks a decision made without a calibrated model for the
	// kernel (e.g. perfmodel.Fit failed on the calibration samples): it
	// runs at the heuristic p and the planner_fallback counter
	// increments, never a silent default.
	Fallback bool
}

// Planner scores candidate machine sizes and counts its decisions.
type Planner struct {
	mode Mode

	mu     sync.Mutex
	models map[string]*perfmodel.Model
	// decisions counts Choose calls; fallbacks those without a usable
	// model.
	decisions uint64
	fallbacks uint64
	calErr    string // startup calibration failure, surfaced in Snapshot
}

// New returns a planner in the given mode with no calibrated models;
// until Fit or SetModel installs one for a kernel, every decision for it
// is a fallback.
func New(mode Mode) *Planner {
	return &Planner{mode: mode, models: make(map[string]*perfmodel.Model)}
}

// Mode reports the planner's mode.
func (pl *Planner) Mode() Mode { return pl.mode }

// SetModel installs a fitted model for kernel, replacing any previous
// one. Tests use it to pin deterministic decisions.
func (pl *Planner) SetModel(kernel string, m *perfmodel.Model) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.models[kernel] = m
}

// Fit fits a model for kernel from measured samples, surfacing the
// perfmodel error instead of leaving a silent default: a kernel whose
// fit fails stays uncalibrated, and decisions needing it fall back
// (counted in Snapshot().Fallbacks).
func (pl *Planner) Fit(kernel string, samples []perfmodel.Sample) error {
	m, err := perfmodel.FitRobust(samples)
	if err != nil {
		return fmt.Errorf("planner: calibrating %q (%d samples): %w", kernel, len(samples), err)
	}
	pl.SetModel(kernel, m)
	return nil
}

// SetCalibrationError records a startup calibration failure so the stats
// snapshot surfaces it — the kernels whose fits failed stay uncalibrated
// and show up as fallbacks, never as silent defaults.
func (pl *Planner) SetCalibrationError(err error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if err != nil {
		pl.calErr = err.Error()
	} else {
		pl.calErr = ""
	}
}

// Calibrated returns the sorted names of kernels holding a fitted model.
func (pl *Planner) Calibrated() []string { return pl.Snapshot().Calibrated }

// HeuristicP is the planner-off machine sizing: an explicit request is
// honored (clamped to maxP); otherwise p doubles while each processor
// would still hold more than 2·edgesPerProc edges. It is also the p a
// planner decision falls back to, and the one it keeps on a tie.
func HeuristicP(m, explicit, maxP int) int {
	if maxP < 1 {
		maxP = 1
	}
	if explicit > 0 {
		if explicit > maxP {
			return maxP
		}
		return explicit
	}
	const edgesPerProc = 4096
	p := 1
	for p < maxP && m/p > 2*edgesPerProc {
		p *= 2
	}
	if p > maxP {
		p = maxP
	}
	return p
}

// candidatePs enumerates the machine sizes scored for a BSP kernel:
// the pinned p when the request sets one, else powers of two up to and
// including maxP.
func candidatePs(explicit, maxP int) []int {
	if explicit > 0 {
		if explicit > maxP {
			explicit = maxP
		}
		return []int{explicit}
	}
	var ps []int
	for p := 1; p <= maxP; p *= 2 {
		ps = append(ps, p)
	}
	if ps[len(ps)-1] != maxP {
		ps = append(ps, maxP)
	}
	return ps
}

// Choose picks the machine size with the lowest predicted time for
// alg's kernel on a graph with the given statistics. Ties and the
// no-usable-model case resolve to the heuristic p; among the other
// candidates ascending order breaks ties.
func (pl *Planner) Choose(alg string, st GraphStats, par Params, explicitP, maxP int) Decision {
	if maxP < 1 {
		maxP = 1
	}
	hp := HeuristicP(st.M, explicitP, maxP)
	fallback := Decision{P: hp, Fallback: true}
	k := For(alg)

	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.decisions++

	if k == nil || k.Cost == nil {
		pl.fallbacks++
		return fallback
	}
	model := pl.models[k.Name]
	if model == nil {
		pl.fallbacks++
		return fallback
	}
	bestP, bestPred := hp, model.Predict(k.Cost(st, hp, par))
	for _, p := range candidatePs(explicitP, maxP) {
		if pred := model.Predict(k.Cost(st, p, par)); pred < bestPred {
			bestP, bestPred = p, pred
		}
	}
	return Decision{P: bestP, PredictedMs: bestPred * 1000}
}

// ModelConstants is the JSON-ready form of a fitted model.
type ModelConstants struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
	C float64 `json:"c"`
	D float64 `json:"d"`
}

// Snapshot is the planner block served under /v1/stats and exported to
// /metrics.
type Snapshot struct {
	Mode       string   `json:"mode"`
	Calibrated []string `json:"calibrated,omitempty"`
	// Decisions counts Choose calls; Fallbacks the subset decided without
	// a calibrated model.
	Decisions uint64                    `json:"decisions"`
	Fallbacks uint64                    `json:"fallbacks"`
	Models    map[string]ModelConstants `json:"models,omitempty"`
	// CalibrationError is the startup calibration failure, if any; the
	// kernels it names stay uncalibrated and decisions needing them fall
	// back.
	CalibrationError string `json:"calibration_error,omitempty"`
}

// Snapshot captures the planner's counters and fitted constants.
func (pl *Planner) Snapshot() *Snapshot {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	sn := &Snapshot{
		Mode:             string(pl.mode),
		CalibrationError: pl.calErr,
		Decisions:        pl.decisions,
		Fallbacks:        pl.fallbacks,
	}
	for name, m := range pl.models {
		if sn.Models == nil {
			sn.Models = make(map[string]ModelConstants)
		}
		sn.Models[name] = ModelConstants{A: m.A, B: m.B, C: m.C, D: m.D}
		sn.Calibrated = append(sn.Calibrated, name)
	}
	sort.Strings(sn.Calibrated)
	return sn
}
