package core

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// The applications are deterministic programs over the Runner interface,
// and in the section-free engines (native, classic) every effect a program
// has on the simulation passes through five operations: compute charges,
// sends, receives, allreduces and barriers. Recording that sequence once —
// per logical rank, at the Runner boundary — captures everything the
// simulator can observe about the program, so a later run can replay the
// trace instead of re-executing the application's kernels.
//
// Replay reproduces the simulation exactly, crashes included: under
// send-deterministic replication (§II) a crash never alters a logical
// rank's operation sequence — the replication layer re-routes deliveries
// and replays send logs underneath it — so the trace recorded from the
// fault-free run is the trace of every trial. Message payload contents are
// the one thing not reproduced (replayed sends carry empty arrays with the
// recorded modeled size, and modeled cost depends only on that size), which
// is why replay is reserved for runs whose results feed timing aggregates,
// never figure tables derived from app-internal state: the campaign's
// crashed classic trials and jobstream's crashed replicated jobs. Both
// claims are checked on random survivable crash schedules over the four
// apps at degrees 2 and 3: every survivor records the fault-free trace op
// for op (TestSurvivorTracesMatchFaultFree), and replay matches
// execution's wall time and crash consequences
// (TestReplayMatchesExecution).

const (
	traceCompute   = iota // d: accumulated compute duration
	traceSend             // peer, tag, bytes: modeled payload size
	traceRecv             // peer, tag
	traceAllreduce        // peer: element count
	traceBarrier
)

type traceOp struct {
	kind  int
	peer  int // send dst / recv src; allreduce element count
	tag   int
	bytes int64
	d     sim.Time
}

// Trace is the recorded logical-operation sequence of one logical rank.
// Adjacent compute charges are merged as they are recorded: sim.Time is
// integral, so the merged charge is exactly the sum the original sequence
// would have accumulated.
type Trace struct {
	ops   []traceOp
	total sim.Time // the recording main's returned in-app total
}

func (tr *Trace) compute(d sim.Time) {
	if tr == nil {
		return
	}
	if n := len(tr.ops); n > 0 && tr.ops[n-1].kind == traceCompute {
		tr.ops[n-1].d += d
		return
	}
	tr.ops = append(tr.ops, traceOp{kind: traceCompute, d: d})
}

func (tr *Trace) comm(kind, peer, tag int, bytes int64) {
	if tr == nil {
		return
	}
	tr.ops = append(tr.ops, traceOp{kind: kind, peer: peer, tag: tag, bytes: bytes})
}

// Equal reports whether two traces hold the same operation sequence, op
// for op. The in-app totals are not compared: a crash delays a survivor's
// own clock readings without changing what it does.
func (tr *Trace) Equal(o *Trace) bool { return slices.Equal(tr.ops, o.ops) }

// TraceSet holds one trace per logical rank. In replicated modes every
// replica of a rank records the identical sequence (that is the
// send-determinism the replay argument rests on), so the set keeps the
// first committed trace per rank.
type TraceSet struct {
	traces []*Trace
}

// NewTraceSet allocates an empty set for `logical` ranks.
func NewTraceSet(logical int) *TraceSet {
	return &TraceSet{traces: make([]*Trace, logical)}
}

// Commit stores rank's recorded trace and the app main's returned total.
// The first completed replica of a rank wins; its twins recorded the same
// sequence.
func (ts *TraceSet) Commit(rank int, tr *Trace, total sim.Time) {
	if ts.traces[rank] == nil {
		tr.total = total
		ts.traces[rank] = tr
	}
}

// Complete reports whether every logical rank has committed a trace.
func (ts *TraceSet) Complete() bool {
	for _, tr := range ts.traces {
		if tr == nil {
			return false
		}
	}
	return true
}

// Rank returns the committed trace for one logical rank (nil if absent).
func (ts *TraceSet) Rank(rank int) *Trace {
	if rank < 0 || rank >= len(ts.traces) {
		return nil
	}
	return ts.traces[rank]
}

// StartRecording attaches a fresh trace to the runner and returns it. It
// must be called before the application main runs, and only on the
// section-free engines: the intra engine exchanges section-protocol
// messages below the Runner boundary, which a Runner-level trace cannot
// see (and which are not crash-invariant, so they could not be replayed
// under faults anyway).
func StartRecording(rt Runner) (*Trace, error) {
	r, ok := rt.(*R)
	if !ok {
		return nil, fmt.Errorf("core: trace recording requires the standard runner, got %T", rt)
	}
	if _, ok := r.engine.(*localEngine); !ok {
		return nil, fmt.Errorf("core: trace recording is limited to section-free engines (native, classic), not %q", r.Mode())
	}
	tr := &Trace{}
	r.rec = tr
	return tr, nil
}

// Replay re-issues the trace of rt's logical rank against the runner and
// returns the recorded in-app total. The rank-level operation sequence —
// and with it every simulated time — is identical to executing the
// recorded application, minus message payload contents: replayed sends
// carry empty arrays with the recorded modeled sizes, and allreduces run
// on a zeroed scratch buffer of the recorded length.
func Replay(rt Runner, ts *TraceSet) (sim.Time, error) {
	r, ok := rt.(*R)
	if !ok {
		return 0, fmt.Errorf("core: replay requires the standard runner, got %T", rt)
	}
	tr := ts.Rank(r.LogicalRank())
	if tr == nil {
		return 0, fmt.Errorf("core: no trace recorded for logical rank %d", r.LogicalRank())
	}
	var scratch []float64
	for i := range tr.ops {
		op := &tr.ops[i]
		var err error
		switch op.kind {
		case traceCompute:
			r.stats.OutsideCompute += op.d
			r.rank().Compute(op.d)
		case traceSend:
			err = r.sendSized(op.peer, op.tag, nil, op.bytes)
		case traceRecv:
			_, err = r.recv(op.peer, op.tag)
		case traceAllreduce:
			if op.peer > len(scratch) {
				scratch = make([]float64, op.peer)
			}
			err = r.allreduce(mpi.OpSum, scratch[:op.peer])
		case traceBarrier:
			err = r.barrier()
		}
		if err != nil {
			return 0, fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	return tr.total, nil
}
