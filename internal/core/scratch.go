package core

import (
	"repro/internal/mpi"
	"repro/internal/replication"
)

// Scratch is the trial state a harness recycles across the clusters it
// runs in sequence on one goroutine (a sweep worker simulating one
// campaign trial after another), one share per layer: the world's free
// lists, rank states and communicators (MPI), the replication system's
// tables, procs and headers (Repl), and core's runners, each with its task
// records, per-argument slices and intra section scratch. A cluster builds
// its world on MPI, its system on Repl and its runners here; once its run
// has drained, Reclaim here and the system's and world's Reclaim hand
// everything back, reset, and the next cluster starts warm.
//
// Nothing a scratch keeps points into a finished run: every recycled
// object drops its world, rank, proc, program and trace references when
// it is reclaimed, so the run's world is garbage as soon as its caller
// drops it.
type Scratch struct {
	MPI  *mpi.Scratch
	Repl *replication.Scratch
	free []*R // reset runners, ready for the next run
	used []*R // runners handed out since the last Reclaim
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch {
	return &Scratch{MPI: mpi.NewScratch(), Repl: replication.NewScratch()}
}

// Native is NewNative on a recycled runner.
func (sc *Scratch) Native(rank *mpi.Rank) *R { return sc.runner().native(rank) }

// Classic is NewClassic on a recycled runner.
func (sc *Scratch) Classic(p *replication.Proc) *R { return sc.runner().classic(p) }

// Intra is NewIntra on a recycled runner.
func (sc *Scratch) Intra(p *replication.Proc, opts Options) *R { return sc.runner().intraOn(p, opts) }

func (sc *Scratch) runner() *R {
	var r *R
	if n := len(sc.free); n > 0 {
		r = sc.free[n-1]
		sc.free[n-1] = nil
		sc.free = sc.free[:n-1]
	} else {
		r = new(R)
	}
	sc.used = append(sc.used, r)
	return r
}

// Reclaim resets every runner handed out since the last Reclaim for the
// next run. Call it once the run has drained; the runners must not be
// used afterwards.
func (sc *Scratch) Reclaim() {
	for i, r := range sc.used {
		r.reset()
		sc.free = append(sc.free, r)
		sc.used[i] = nil
	}
	sc.used = sc.used[:0]
}

// reset drops every pointer the runner holds into its run — the
// communication substrate, the trace, the section's task functions and
// arguments, the intra engine's replica and hooks — and keeps the
// capacity of its task records and slices.
func (r *R) reset() {
	r.comm, r.engine, r.rec = nil, nil, nil
	r.stats, r.inSection, r.secStart = Stats{}, false, 0
	clear(r.defs[:cap(r.defs)])
	r.defs = r.defs[:0]
	for _, t := range r.tasks[:cap(r.tasks)] {
		if t != nil {
			t.reset()
		}
	}
	r.tasks = r.tasks[:0]
	r.intra.reset()
}

// reset drops the task's function and arguments. args is the launcher's
// slice, and a replayed section's launcher passes its recording's shared
// size-only stand-ins, so it is dropped, never cleared.
func (t *task) reset() {
	t.def, t.args = taskDef{}, nil
	clear(t.copies)
	clear(t.pendingD)
}

func (en *intraEngine) reset() {
	en.p, en.w, en.opts, en.secSeq = nil, nil, Options{}, 0
	clear(en.recvs[:cap(en.recvs)])
	clear(en.selfExec[:cap(en.selfExec)])
	clear(en.sends[:cap(en.sends)])
}
