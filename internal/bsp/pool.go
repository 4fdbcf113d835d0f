package bsp

import "sync"

// machinePools caches in-process machines by processor count, so that a
// stream of same-sized runs — library calls and served queries alike —
// reuses mailboxes, collective scratch, and payload pools instead of
// reallocating them per run. sync.Pool gives free concurrency and lets
// idle machines be collected under memory pressure.
var machinePools sync.Map // int -> *sync.Pool

// AcquireMachine checks a p-processor in-process machine out of the
// pool, building one when none is idle. The caller owns it until
// ReleaseMachine.
func AcquireMachine(p int) (*Machine, error) {
	v, ok := machinePools.Load(p)
	if !ok {
		v, _ = machinePools.LoadOrStore(p, &sync.Pool{})
	}
	if m, ok := v.(*sync.Pool).Get().(*Machine); ok {
		return m, nil
	}
	return NewMachine(p)
}

// ReleaseMachine returns a machine from AcquireMachine to the pool. Only
// a machine whose last run returned a nil error may come back: a failed
// or cancelled run can leave mailboxes mid-superstep, so its machine is
// dropped instead.
func ReleaseMachine(m *Machine) {
	if v, ok := machinePools.Load(m.p); ok {
		v.(*sync.Pool).Put(m)
	}
}
