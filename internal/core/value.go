// Package core implements intra-parallelization, the paper's contribution:
// sharing the work of computational sections between the replicas of a
// logical MPI process (§III).
//
// A computation phase is declared as an *intra-parallel section* divided
// into *tasks* (Definitions 1 and 2). Under the intra runtime each task is
// executed by exactly one replica, which ships the task's written variables
// ("updates") to its peer replicas so that all replicas are consistent
// again when the section ends. If a replica crashes mid-section, survivors
// re-execute its unfinished tasks; copies of inout variables (or atomic
// update application) protect re-execution against the true-dependence
// hazard of Figure 2.
//
// The same section API also runs under two baseline engines: native (no
// replication; every task runs locally) and classic state-machine
// replication (every replica runs every task), so applications are written
// once and measured in all three configurations of the paper's evaluation.
package core

// Value is a variable that can be passed to an intra-parallel task. The
// runtime uses it to snapshot inout arguments, to encode updates for the
// wire, and to apply received updates to the replica's memory.
type Value interface {
	// ByteSize returns the size of the variable for cost accounting and
	// update-transfer modeling.
	ByteSize() int64
	// Snapshot returns a deep copy with private storage.
	Snapshot() Value
	// Restore overwrites this value's backing memory from a snapshot
	// previously returned by Snapshot.
	Restore(from Value)
	// Encode returns the wire representation. It may alias backing memory;
	// the messaging layer copies on send.
	Encode() []float64
	// Apply overwrites this value's backing memory from a wire
	// representation. It must not retain data: the runtime recycles the
	// received buffer as soon as Apply returns.
	Apply(data []float64)
}

// Float64s is a Value backed by a float64 slice in application memory.
type Float64s []float64

// ByteSize returns 8 bytes per element.
func (v Float64s) ByteSize() int64 { return 8 * int64(len(v)) }

// Snapshot returns a deep copy.
func (v Float64s) Snapshot() Value { return append(Float64s(nil), v...) }

// Restore copies a snapshot back into the backing slice.
func (v Float64s) Restore(from Value) { copy(v, from.(Float64s)) }

// Encode returns the backing slice (the messaging layer copies on send).
func (v Float64s) Encode() []float64 { return v }

// Apply copies received data into the backing slice.
func (v Float64s) Apply(data []float64) { copy(v, data) }

// Scalar is a Value backed by a single float64 in application memory.
type Scalar struct{ P *float64 }

// ByteSize returns 8.
func (s Scalar) ByteSize() int64 { return 8 }

// Snapshot returns a copy with private storage.
func (s Scalar) Snapshot() Value {
	v := *s.P
	return Scalar{P: &v}
}

// Restore copies a snapshot back.
func (s Scalar) Restore(from Value) { *s.P = *from.(Scalar).P }

// Encode returns a one-element wire representation.
func (s Scalar) Encode() []float64 { return []float64{*s.P} }

// Apply overwrites the scalar from the wire representation.
func (s Scalar) Apply(data []float64) { *s.P = data[0] }

// ArgTag declares how a task accesses an argument (§III-C): in arguments
// are only read; out arguments are written without being read; inout
// arguments are read and written and therefore need protection against
// re-execution after a partial update (Figure 2).
type ArgTag uint8

// Argument access tags.
const (
	In ArgTag = iota
	Out
	InOut
)

func (t ArgTag) String() string {
	switch t {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return "invalid"
}

// Scaled wraps a Value so its modeled size is factor times its in-memory
// size. Scaled-down experiment runs wrap task outputs with the ratio
// between the paper's problem size and the allocated arrays, so update
// transfers and inout copies are charged at the modeled scale.
func Scaled(v Value, factor float64) Value {
	if factor == 1 {
		return v
	}
	return scaledValue{Value: v, factor: factor}
}

type scaledValue struct {
	Value
	factor float64
}

func (s scaledValue) ByteSize() int64 {
	return int64(float64(s.Value.ByteSize()) * s.factor)
}

func (s scaledValue) Snapshot() Value {
	return scaledValue{Value: s.Value.Snapshot(), factor: s.factor}
}

func (s scaledValue) Restore(from Value) {
	if sv, ok := from.(scaledValue); ok {
		s.Value.Restore(sv.Value)
		return
	}
	s.Value.Restore(from)
}
