// Package apputil holds helpers shared by the benchmark applications.
package apputil

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// SizeDivisor shrinks per-axis grid extents of the paper-scale app configs
// for laptop-scale runs while the cost model charges the paper-scale
// problem (volume scales by its cube, halo planes by its square). 8 keeps
// every figure run under a second of real time while preserving time
// ratios.
const SizeDivisor = 8

// KernelTime is the accumulated wall time of one kernel, with the portion
// spent waiting on update transfers after local tasks finished (the dashed
// area of Figure 5a).
type KernelTime struct {
	Wall       sim.Time
	UpdateWait sim.Time
	Calls      int
}

// Clock accumulates per-kernel wall times for one replica.
type Clock struct {
	rt    core.Runner
	Times map[string]*KernelTime
}

// NewClock creates a clock over rt.
func NewClock(rt core.Runner) *Clock {
	return &Clock{rt: rt, Times: make(map[string]*KernelTime)}
}

// Track runs fn and charges its wall time (and update-wait delta) to the
// named kernel.
func (c *Clock) Track(name string, fn func()) {
	t0 := c.rt.Now()
	u0 := c.rt.Stats().UpdateWait
	fn()
	kt := c.Times[name]
	if kt == nil {
		kt = &KernelTime{}
		c.Times[name] = kt
	}
	kt.Wall += c.rt.Now() - t0
	kt.UpdateWait += c.rt.Stats().UpdateWait - u0
	kt.Calls++
}

// Names returns the tracked kernel names in sorted order.
func (c *Clock) Names() []string {
	names := make([]string, 0, len(c.Times))
	for n := range c.Times {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExchangeZHalo swaps boundary z planes with the logical neighbors of a
// slab decomposed along z: it sends bottom to rank-1 with tagUp and top to
// rank+1 with tagDown, then fills belowHalo from rank-1 and aboveHalo from
// rank+1. Every message is modeled as wire payload bytes; the first and
// last rank skip their missing neighbor. The order (both sends, then both
// receives) is part of the op trace every replica follows.
func ExchangeZHalo(rt core.Runner, tagUp, tagDown int, bottom, top, belowHalo, aboveHalo []float64, wire int64) error {
	rank, size := rt.LogicalRank(), rt.LogicalSize()
	if rank > 0 {
		if err := rt.SendSized(rank-1, tagUp, bottom, wire); err != nil {
			return err
		}
	}
	if rank < size-1 {
		if err := rt.SendSized(rank+1, tagDown, top, wire); err != nil {
			return err
		}
	}
	if rank > 0 {
		data, err := rt.Recv(rank-1, tagDown)
		if err != nil {
			return err
		}
		copy(belowHalo, data)
	}
	if rank < size-1 {
		data, err := rt.Recv(rank+1, tagUp)
		if err != nil {
			return err
		}
		copy(aboveHalo, data)
	}
	return nil
}

// TaskBounds splits n items into nTasks contiguous ranges; range i is
// [lo, hi). It distributes remainders evenly like the paper's n/N split.
func TaskBounds(n, nTasks, i int) (lo, hi int) {
	return n * i / nTasks, n * (i + 1) / nTasks
}
