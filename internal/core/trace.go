package core

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// The applications are deterministic programs over the Runner interface,
// and every effect a program has on the simulation passes through that
// interface: compute charges, sends, receives, allreduces and
// intra-parallel sections. Recording that sequence once per logical rank,
// with each section's tasks (their argument tags, each argument's
// ByteSize and the compute the task body charged), captures everything
// the simulator can observe about the program, so a later run can replay
// the trace instead of re-executing the application's kernels.
//
// A trace is recorded on a local engine (native or classic), where every
// task of a section runs on the recording process and the application
// cannot tell the engines apart, so one recording serves the logical
// program under every engine. Replay re-issues it against any engine:
//   - on a local engine a section folds into the surrounding compute
//     charges, exactly as its tasks' charges merged with them while
//     recording, so a replayed classic run is the op sequence of
//     compute charges and messages alone;
//   - on the intra engine each section runs through the real section
//     protocol with size-only arguments (sized): task bodies charge their
//     recorded compute, snapshots, restores and applied updates move no
//     data, and updates travel as empty payloads at the recorded wire
//     size. Every cost the intra engine models depends only on sizes and
//     durations, so crash handling (re-executed tasks, recovery rounds,
//     update waits) happens exactly as under execution.
//
// Replay reproduces the simulation exactly, crashes included: under
// send-deterministic replication (§II) a crash never alters a logical
// rank's Runner-level call sequence — the replication layer re-routes
// deliveries and replays send logs underneath it, and the section
// protocol re-executes orphaned tasks below it — so the trace recorded
// from the fault-free run is the trace of every trial. Message payload
// contents are the one thing not reproduced, which is why replay is
// reserved for runs whose results feed timing aggregates, never figure
// tables derived from app-internal state: the campaign's crashed
// replicated trials and jobstream's crashed replicated jobs. Both claims
// are checked on random survivable crash schedules over the four apps at
// degrees 2 and 3, under classic and both intra inout modes: every
// survivor records the fault-free trace op for op
// (TestSurvivorTracesMatchFaultFree), and replay matches execution's wall
// time, crash consequences and section accounting
// (TestReplayMatchesExecution).

const (
	traceCompute   = iota // d: accumulated compute duration
	traceSend             // peer, tag, bytes: modeled payload size
	traceRecv             // peer, tag
	traceAllreduce        // a scalar sum
	traceSection          // peer, tag: first index and count of its tasks; d, charged: their compute
)

type traceOp struct {
	kind    int
	peer    int // send dst / recv src; section's first task
	tag     int // send/recv tag; section's task count
	bytes   int64
	d       sim.Time
	charged bool // section: some task body charged compute (a zero duration included)
}

// traceTask is one launched task of a recorded section.
type traceTask struct {
	tags    []ArgTag
	args    []Value  // one sized stand-in per argument, at its recorded ByteSize
	d       sim.Time // the compute the body charged
	charged bool     // the body charged compute at all
	body    TaskFunc // replays the body: t.replay, bound when the trace is committed
}

// replay is a recorded task's body: one charge of the compute the
// recorded body made, none if it made none.
func (t *traceTask) replay(c Ctx, _ []Value) {
	if t.charged {
		c.(taskCtx).charge(t.d)
	}
}

// sized is the size-only Value a replayed section passes for a recorded
// argument: it reports the recorded ByteSize and holds no data, so the
// intra engine charges copies and update transfers at the recorded size
// while moving nothing. It is immutable, so one recording's stand-ins
// serve every replay at once.
type sized struct{ n int64 }

func (s *sized) ByteSize() int64   { return s.n }
func (s *sized) Snapshot() Value   { return s }
func (s *sized) Restore(Value)     {}
func (s *sized) Encode() []float64 { return nil }
func (s *sized) Apply([]float64)   {}

// Trace is the recorded Runner-level call sequence of one logical rank.
// Adjacent compute charges are merged as they are recorded: sim.Time is
// integral, so the merged charge is exactly the sum the original sequence
// would have accumulated.
type Trace struct {
	ops   []traceOp
	tasks []*traceTask
	total sim.Time // the recording main's returned in-app total
	// local marks a trace recorded on a local engine, which ran every
	// task body and so recorded its compute; only such a trace replays.
	local bool
	// While recording: the last section's op index, the task whose body
	// is running, and the stand-ins recorded so far, by size.
	sec   int
	cur   *traceTask
	sizes map[int64]*sized
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

// section records a section's launched tasks as SectionEnd hands them to
// the engine. Tasks of one registered type share their tags, and equal
// sizes share one stand-in.
func (tr *Trace) section(ts []*task) {
	if tr == nil {
		return
	}
	tr.sec = len(tr.ops)
	tr.ops = append(tr.ops, traceOp{kind: traceSection, peer: len(tr.tasks), tag: len(ts)})
	n := 0
	for _, t := range ts {
		n += len(t.args)
	}
	recs, vals := make([]traceTask, len(ts)), make([]Value, n)
	if tr.sizes == nil {
		tr.sizes = map[int64]*sized{}
	}
	for i, t := range ts {
		rt := &recs[i]
		if i > 0 && sameTags(t.def.tags, ts[i-1].def.tags) {
			rt.tags = recs[i-1].tags
		} else {
			rt.tags = slices.Clone(t.def.tags)
		}
		rt.args, vals = vals[:len(t.args):len(t.args)], vals[len(t.args):]
		for k, a := range t.args {
			b := a.ByteSize()
			if tr.sizes[b] == nil {
				tr.sizes[b] = &sized{n: b}
			}
			rt.args[k] = tr.sizes[b]
		}
		tr.tasks = append(tr.tasks, rt)
	}
}

// sameTags reports whether two registrations' tag slices are one slice,
// as they are for tasks of one registered type.
func sameTags(a, b []ArgTag) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// startTask attributes the compute charged next to task idx of the
// section being recorded.
func (tr *Trace) startTask(idx int) {
	if tr == nil || !tr.local {
		return
	}
	tr.cur = tr.tasks[tr.ops[tr.sec].peer+idx]
}

// taskCompute records a charge of the running task body; its section op
// accumulates it too. An intra replica runs only some of a section's
// tasks, so its trace records none of their compute.
func (tr *Trace) taskCompute(d sim.Time) {
	if tr == nil || !tr.local {
		return
	}
	tr.cur.d += d
	tr.cur.charged = true
	op := &tr.ops[tr.sec]
	op.d += d
	op.charged = true
}

// Equal reports whether two traces hold the same call sequence, op for op
// and task for task. The in-app totals are not compared: a crash delays a
// survivor's own clock readings without changing what it does. Task
// compute is compared only when both traces recorded it (on local
// engines).
func (tr *Trace) Equal(o *Trace) bool {
	both := tr.local && o.local
	if len(tr.ops) != len(o.ops) || len(tr.tasks) != len(o.tasks) {
		return false
	}
	for i, a := range tr.ops {
		b := o.ops[i]
		if !both && a.kind == traceSection {
			a.d, a.charged, b.d, b.charged = 0, false, 0, false
		}
		if a != b {
			return false
		}
	}
	for i, a := range tr.tasks {
		b := o.tasks[i]
		if !slices.Equal(a.tags, b.tags) || len(a.args) != len(b.args) ||
			both && (a.d != b.d || a.charged != b.charged) {
			return false
		}
		for k, v := range a.args {
			if v.ByteSize() != b.args[k].ByteSize() {
				return false
			}
		}
	}
	return true
}

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
		tr.cur, tr.sizes = nil, nil
		for _, t := range tr.tasks {
			t.body = t.replay
		}
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
// must be called before the application main runs. On a local engine
// (native, classic) the trace is replayable: every task body runs on the
// recording process, so the trace holds the compute each one charged. An
// intra replica runs only its share of a section's tasks and receives
// the rest, so its trace holds the Runner-level calls without task
// compute: it compares survivors' call sequences (Equal) but does not
// replay. Section-protocol messages run below the Runner boundary and
// are never recorded.
func StartRecording(rt Runner) (*Trace, error) {
	r, ok := rt.(*R)
	if !ok {
		return nil, fmt.Errorf("core: trace recording requires the standard runner, got %T", rt)
	}
	_, local := r.engine.(*localEngine)
	tr := &Trace{local: local}
	r.rec = tr
	return tr, nil
}

// Replay re-issues the trace of rt's logical rank against the runner, on
// any engine (see the top of this file). The Runner-level call sequence,
// and with it every simulated time, is identical to executing the
// recorded application, minus message payload contents: replayed sends
// carry empty arrays with the recorded modeled sizes, allreduces sum the
// runner's reduction cell (its contents are whatever the last reduction
// left), and sections move no data.
//
// On a local engine Replay returns the recording's in-app total. On the
// intra engine, whose timing differs from the recording engine's, it
// returns its own: the virtual time from its first call to its last,
// which is the total the four apps report (each reads its start clock
// before its first Runner call and its end clock after its last).
func Replay(rt Runner, ts *TraceSet) (sim.Time, error) {
	r, ok := rt.(*R)
	if !ok {
		return 0, fmt.Errorf("core: replay requires the standard runner, got %T", rt)
	}
	tr := ts.Rank(r.LogicalRank())
	if tr == nil {
		return 0, fmt.Errorf("core: no trace recorded for logical rank %d", r.LogicalRank())
	}
	if !tr.local {
		return 0, fmt.Errorf("core: the trace of logical rank %d was recorded on the intra engine, without task compute", r.LogicalRank())
	}
	_, local := r.engine.(*localEngine)
	start := r.Now()
	// Compute charges accumulate until the next call that is not one, as
	// they merged while recording.
	var pend sim.Time
	charged := false
	for i := range tr.ops {
		op := &tr.ops[i]
		switch op.kind {
		case traceCompute:
			pend += op.d
			charged = true
			continue
		case traceSection:
			if local {
				pend += op.d
				charged = charged || op.charged
				continue
			}
		}
		if charged {
			r.stats.OutsideCompute += pend
			r.rank().Compute(pend)
			pend, charged = 0, false
		}
		var err error
		switch op.kind {
		case traceSend:
			err = r.sendSized(op.peer, op.tag, nil, op.bytes)
		case traceRecv:
			_, err = r.recv(op.peer, op.tag)
		case traceAllreduce:
			err = r.allreduce(r.reduceBuf[:])
		case traceSection:
			err = r.replaySection(tr.tasks[op.peer : op.peer+op.tag])
		}
		if err != nil {
			return 0, fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	if charged {
		r.stats.OutsideCompute += pend
		r.rank().Compute(pend)
	}
	if local {
		return tr.total, nil
	}
	return r.Now() - start, nil
}

// replaySection runs one recorded section through the section API: every
// task with its recorded tags and size-only arguments, in launch order.
func (r *R) replaySection(tasks []*traceTask) error {
	r.SectionBegin()
	for _, t := range tasks {
		r.TaskLaunch(r.TaskRegister(t.body, t.tags...), t.args...)
	}
	return r.SectionEnd()
}
