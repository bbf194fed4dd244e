// Package perf models the compute performance of a cluster node.
//
// The paper's efficiency results are driven by the ratio between the
// computation a task performs and the size of the update it must ship to
// peer replicas (§V-C: "We can relate intra-parallelization efficiency to
// the number of floating-point operations required to compute each
// output"). We therefore account each kernel's work as (bytes touched,
// flops executed) and convert it to virtual time with a roofline-style
// model: a kernel is limited either by memory bandwidth or by the floating
// point unit, whichever bound is larger.
package perf

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Work is the resource consumption of a block of computation.
type Work struct {
	Bytes float64 // bytes moved to/from memory
	Flops float64 // floating-point operations
}

// Add returns the sum of two works.
func (w Work) Add(o Work) Work { return Work{w.Bytes + o.Bytes, w.Flops + o.Flops} }

// Scale returns the work multiplied by k. Used to charge paper-scale cost
// while executing on scaled-down arrays.
func (w Work) Scale(k float64) Work { return Work{w.Bytes * k, w.Flops * k} }

// IsZero reports whether the work is empty.
func (w Work) IsZero() bool { return w.Bytes == 0 && w.Flops == 0 }

func (w Work) String() string {
	return fmt.Sprintf("{%.3g B, %.3g flops}", w.Bytes, w.Flops)
}

// Machine describes the per-core compute capabilities of a cluster node.
type Machine struct {
	// MemBWPerCore is the sustainable memory bandwidth per core in bytes/s
	// when all cores of a node are active (i.e. the socket bandwidth divided
	// by the core count).
	MemBWPerCore float64
	// FlopsPerCore is the sustainable floating-point rate per core in
	// flops/s for solver-style code (well below peak).
	FlopsPerCore float64
}

// Duration converts work to virtual time under the roofline model.
func (m Machine) Duration(w Work) sim.Time {
	tb := w.Bytes / m.MemBWPerCore
	tf := w.Flops / m.FlopsPerCore
	t := tb
	if tf > t {
		t = tf
	}
	return sim.Seconds(t)
}

// MemcpyDuration returns the time to copy n bytes within a core's memory
// (read + write traffic). Used to cost the extra copy of inout variables.
func (m Machine) MemcpyDuration(n int64) sim.Time {
	return m.Duration(Work{Bytes: 2 * float64(n)})
}

// Grid5000 approximates one core of the paper's testbed: 2.53 GHz 4-core
// Intel Xeon (Nehalem-era), 16 GB per node. Memory bandwidth per core
// assumes ~12 GB/s sustainable per socket shared by 4 cores; the flop rate
// is a sustained (not peak) figure for sparse solver code.
var Grid5000 = Machine{
	MemBWPerCore: 3.0e9,
	FlopsPerCore: 2.0e9,
}

// Skylake approximates one core of a modern HPC node (Skylake-SP era,
// ~2.4 GHz, 6-channel DDR4 shared by ~24 cores): for what-if sweeps beyond
// the paper's 2009 testbed. Both bounds grow, but bandwidth per core grows
// less than the flop rate, which shifts more kernels memory-bound.
var Skylake = Machine{
	MemBWPerCore: 5.0e9,
	FlopsPerCore: 1.2e10,
}

// DefaultMachineName is the name of the paper's node model: the model a
// scenario selects when it omits its machine.
const DefaultMachineName = "grid5000"

// Machines names the machine models available as scenario platform axes.
var Machines = map[string]Machine{
	DefaultMachineName: Grid5000,
	"skylake":          Skylake,
}

// MachineNames returns the machine names, sorted.
func MachineNames() []string {
	names := make([]string, 0, len(Machines))
	for n := range Machines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
