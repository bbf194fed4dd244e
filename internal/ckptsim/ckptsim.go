// Package ckptsim replays a measured fault-free makespan under simulated
// coordinated checkpoint/restart (cCR): the execution model of §II that
// the paper's replication argument is measured against.
//
// A replay takes the application's useful-work duration W (the wall time
// of its unreplicated, failure-free simulation), a checkpoint interval
// tau, a checkpoint cost delta and a restart cost R, plus an absolute
// failure trace, and walks the timeline the §II machine would follow:
// work proceeds in tau-long segments, each followed by a delta-long
// checkpoint that secures the segment (no checkpoint after the final
// segment — the run just completes); a failure at time f destroys all
// work since the last completed checkpoint, costs R of restart, and
// resumes from the secured state; failures during a checkpoint or a
// restart roll back the same way.
//
// This is exactly the renewal process Daly's model (internal/ckpt)
// integrates analytically, so replay means over an exponential failure
// trace converge on ckpt.Efficiency(tau, delta, R, M_sys) — the property
// the campaign layer's measured-vs-analytic comparison rests on, verified
// in this package's tests.
//
// Everything is a pure float64 computation over virtual seconds: replays
// are deterministic, microsecond-cheap, and run thousands of Monte Carlo
// trials per sweep point without touching the discrete-event simulator.
package ckptsim

import (
	"fmt"
	"math"
)

// Params are the cCR machine parameters, in seconds.
type Params struct {
	Tau     float64 // checkpoint interval (useful work between checkpoints)
	Delta   float64 // cost of writing one checkpoint
	Restart float64 // cost of restarting after a failure
}

// Validate rejects parameter combinations the replay cannot execute:
// every parameter must be finite, the interval positive and the costs
// non-negative.
func (p Params) Validate() error {
	if !(p.Tau > 0) || math.IsInf(p.Tau, 1) {
		return fmt.Errorf("ckptsim: checkpoint interval %g must be positive and finite", p.Tau)
	}
	if !finiteNonNegative(p.Delta) || !finiteNonNegative(p.Restart) {
		return fmt.Errorf("ckptsim: checkpoint (%g) and restart (%g) costs must be finite and non-negative", p.Delta, p.Restart)
	}
	return nil
}

func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Trial is one replay outcome.
type Trial struct {
	// Makespan is the wall time to complete the work, checkpoints,
	// rollbacks and restarts included, in seconds.
	Makespan float64
	// Failures counts the failures that hit the run (failures in the trace
	// after completion are ignored).
	Failures int
}

// FaultFreeMakespan is the replay's zero-failure wall time: the work plus
// one checkpoint after every full interval except the last segment.
func (p Params) FaultFreeMakespan(work float64) float64 {
	return p.finish(0, work)
}

// finish returns the completion time of `remaining` seconds of work
// started at absolute time t, assuming no further failures.
func (p Params) finish(t, remaining float64) float64 {
	if remaining <= 0 {
		return t
	}
	ckpts := math.Ceil(remaining/p.Tau) - 1
	return t + remaining + ckpts*p.Delta
}

// secured returns how much of `remaining` work is checkpointed by
// absolute time f, for an attempt started at time t: one full interval
// per completed (tau + delta) cycle, never counting the final segment
// (which has no checkpoint to secure it) and never a half-written
// checkpoint.
func (p Params) secured(t, remaining, f float64) float64 {
	cycles := math.Floor((f - t) / (p.Tau + p.Delta))
	total := math.Ceil(remaining/p.Tau) - 1 // checkpoints this attempt would write
	return p.Tau * min(cycles, total)
}

// Replay executes `work` seconds of application progress under cCR
// against an absolute failure trace (seconds, ascending — the order
// fault.ExponentialDrawUnclamped emits). Failures at or after the
// completion time are ignored; a failure during a restart restarts the
// restart. The trace must cover the returned makespan for the result to be
// exact; past a trace's end the run is failure-free. It is a Replayer fed
// the trace until the run completes.
func Replay(work float64, p Params, failures []float64) (Trial, error) {
	r, err := NewReplayer(work, p)
	if err != nil {
		return Trial{}, err
	}
	for _, f := range failures {
		if !r.Fail(f) {
			break
		}
	}
	return r.Trial, nil
}

// Replayer is one replay in progress, for a trace drawn as it is consumed:
// feed it failures in ascending order through Fail until it refuses one.
// Its Trial is the outcome of the failures fed so far, the rest of the run
// failure-free.
type Replayer struct {
	Trial
	p       Params
	work    float64
	t, done float64 // start of the current attempt; work secured before it
}

// NewReplayer starts a replay of `work` seconds of progress under p.
func NewReplayer(work float64, p Params) (Replayer, error) {
	if err := p.Validate(); err != nil {
		return Replayer{}, err
	}
	if !finiteNonNegative(work) {
		return Replayer{}, fmt.Errorf("ckptsim: work %g must be finite and non-negative", work)
	}
	return Replayer{Trial: Trial{Makespan: p.finish(0, work)}, p: p, work: work}, nil
}

// Fail applies a failure at absolute time f, at or after every earlier
// one, and reports whether it hit the run. False means the run completed
// before f, so every later failure misses it too. A hit rolls the run back
// to its last completed checkpoint and restarts it from there; a failure
// at or before the current attempt's start hit the restart being paid, so
// no progress was made and the restart starts over.
func (r *Replayer) Fail(f float64) bool {
	if f >= r.Makespan {
		return false
	}
	if f > r.t {
		r.done += r.p.secured(r.t, r.work-r.done, f)
	}
	r.t = f + r.p.Restart
	r.Makespan = r.p.finish(r.t, r.work-r.done)
	r.Failures++
	return true
}
