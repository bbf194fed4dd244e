package core

import (
	"repro/internal/mpi"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Runtime overhead constants: CPU cost of managing one task and of posting
// one update request. They model the scheduling and MPI-request costs that
// make very fine task granularities counter-productive (§V-B: "Having more
// tasks can create overhead because it increases synchronization between
// replicas").
const (
	taskOverhead = 1 * sim.Microsecond
	postOverhead = 500 * sim.Nanosecond
)

// InoutMode selects the protection mechanism against the true-dependence
// hazard of re-executing a task after a partial update (§III-B2, Figure 2).
type InoutMode uint8

const (
	// CopyRestore snapshots inout variables before the first update is
	// received and restores the snapshot before any (re-)execution: the
	// paper's chosen solution (Figure 2c, Algorithm 1 lines 30-31, 37-38).
	CopyRestore InoutMode = iota
	// AtomicApply buffers incoming updates and applies them to memory only
	// once the task's full update has arrived: the paper's stated
	// alternative with similar cost (§III-B2).
	AtomicApply
)

func (m InoutMode) String() string {
	if m == AtomicApply {
		return "atomic"
	}
	return "copy"
}

// BlockScheduler assigns each of a section's nTasks tasks to one of the
// given lanes by the paper's static policy (§V-A): with L lanes the first
// n/L launched tasks go to the first lane, the next n/L to the second, and
// so on. It appends each task's lane to owner and returns the extended
// slice. Assignments are computed over the full (configured) lane set on
// every replica, so they are identical everywhere by construction —
// replicas never need to agree dynamically on ownership. Tasks assigned to
// a lane that turns out to be dead are executed locally by every surviving
// replica that is missing their results (the "execute the task locally"
// option of §III-B2).
func BlockScheduler(owner []int, nTasks int, lanes []int) []int {
	l := len(lanes)
	for i := 0; i < nTasks; i++ {
		owner = append(owner, lanes[i*l/nTasks])
	}
	return owner
}

// Hooks expose protocol points to the fault-injection layer. A hook may
// crash the calling replica to exercise the failure cases of §III-B2.
type Hooks struct {
	// BeforeTaskExec fires before a task body runs.
	BeforeTaskExec func(section, task int)
	// AfterTaskExec fires after a task body ran, before any update is sent.
	AfterTaskExec func(section, task int)
	// AfterArgSend fires after the update for one argument has been posted
	// (crashing here models a partial update, the Figure 2 scenario).
	AfterArgSend func(section, task, arg int)
}

// Options configures the intra engine. Update transfers and inout copies
// are charged at each argument's Value.ByteSize, so an application charges
// scaled-down arrays at the modeled problem size by wrapping them in
// Scaled.
type Options struct {
	Mode  InoutMode
	Hooks Hooks
}

// intraEngine implements the paper's protocol (Algorithm 1) for one
// replica. The slices after allLanes are per-section scratch, kept across
// sections so a section allocates none of them.
type intraEngine struct {
	p        *replication.Proc
	w        *mpi.World
	opts     Options
	secSeq   int
	allLanes []int
	owner    []int
	recvs    []pendingRecv
	selfExec []*task
	sends    []*mpi.Request
}

// NewIntra creates a Runner for one replica under intra-parallelization.
func NewIntra(p *replication.Proc, opts Options) *R { return new(R).intraOn(p, opts) }

func (r *R) intraOn(p *replication.Proc, opts Options) *R {
	en := &r.intra
	en.p, en.w, en.opts = p, p.System().World(), opts
	en.allLanes = en.allLanes[:0]
	for l := 0; l < p.System().Config().Degree; l++ {
		en.allLanes = append(en.allLanes, l)
	}
	r.comm, r.engine = replComm{p: p}, en
	r.machine = p.R.Machine()
	return r
}

// updateTag encodes (section, task, argument) into a tag on the dedicated
// replica communicator (§V-A: updates are plain MPI messages over a
// dedicated communicator, which carries nothing else). Tags are unique per
// live section: sections are serialized per logical process, so the 15-bit
// section counter cannot collide while messages are in flight.
//
// Tags are negative, which mpi treats as single-shot: a task's update is
// sent once, when the task completes, to each peer, and a receiver never
// re-posts a receive for an argument it already has, so each (sender,
// receiver, tag) channel carries at most one message. The sender keeps no
// channel state and the receiver retires its channel once the message is
// consumed. A message nobody consumes keeps its channel: its sender was
// seen dead before the receive was posted, and a dead sender is never
// received from again, so a stale message cannot match a later section
// whose counter wrapped onto the same tag.
func updateTag(section, task, arg int) int {
	return ^((section&0x7fff)<<16 | (task&0x3ff)<<6 | arg&0x3f)
}

type pendingRecv struct {
	t   *task
	arg int
	req *mpi.Request
}

// runSection is Intra_Section_end (Algorithm 1 lines 20-28), extended with
// the prototype's overlap optimizations (§V-A): receives for remote tasks
// are posted up front, updates are sent as soon as each local task
// completes, and everything is completed with a Waitall at the end.
//
// Failure handling: a receive from a crashed owner fails, and the next
// round executes the orphaned task locally. Because ownership is a pure
// function of the task index, replicas never block on a peer that does not
// know it is expected to send.
func (en *intraEngine) runSection(r *R) error {
	secID := en.secSeq
	en.secSeq++
	if len(r.tasks) == 0 {
		return nil
	}
	rc := en.p.ReplicaComm()
	sys := en.p.System()
	en.owner = BlockScheduler(en.owner[:0], len(r.tasks), en.allLanes)
	owner := en.owner
	for {
		if len(en.p.AliveLanes()) == 0 {
			return &replication.LogicalRankLostError{Rank: en.p.Logical}
		}
		// Post receives for unfinished tasks owned by live peers
		// (snapshotting their inout arguments first: Algorithm 1,
		// receive_task_update lines 37-38).
		recvs, selfExec := en.recvs[:0], en.selfExec[:0]
		for ti, t := range r.tasks {
			if t.done || owner[ti] == en.p.Lane {
				continue
			}
			if !sys.Alive(en.p.Logical, owner[ti]) {
				selfExec = append(selfExec, t)
				continue
			}
			en.prepareForReceive(r, t)
			for ai, tag := range t.def.tags {
				if tag == In || t.recvd[ai] {
					continue
				}
				r.rank().Compute(postOverhead)
				req := r.rank().Irecv(rc, owner[ti], updateTag(secID, ti, ai))
				recvs = append(recvs, pendingRecv{t: t, arg: ai, req: req})
			}
		}

		// Execute my own tasks, shipping each update as soon as it is
		// ready (overlapped with the remaining computation).
		sends := en.sends[:0]
		for ti, t := range r.tasks {
			if owner[ti] != en.p.Lane || t.done {
				continue
			}
			if h := en.opts.Hooks.BeforeTaskExec; h != nil {
				h(secID, ti)
			}
			r.rank().Compute(taskOverhead)
			r.runTaskLocally(t)
			t.done = true
			if h := en.opts.Hooks.AfterTaskExec; h != nil {
				h(secID, ti)
			}
			sends = en.sendUpdates(r, rc, sends, secID, ti, t)
		}

		// Re-execute locally the unfinished tasks of dead lanes
		// (§III-B2: tasks can run in any order thanks to the
		// input-dependence-only rule, and inout snapshots undo any
		// partially applied update, Figure 2c).
		for _, t := range selfExec {
			if h := en.opts.Hooks.BeforeTaskExec; h != nil {
				h(secID, t.idx)
			}
			r.runTaskLocally(t)
			t.done = true
			r.stats.TasksRecovered++
		}
		localDone := r.Now()

		// Collect updates for remote tasks; failures trigger another round.
		failed := false
		for _, pr := range recvs {
			msg, err := r.rank().WaitOwned(pr.req)
			if err != nil {
				if mpi.IsPeerDead(err) {
					failed = true
					continue
				}
				return err
			}
			en.applyUpdate(pr.t, pr.arg, msg)
		}
		en.finishReceivedTasks(r)

		err := r.rank().WaitallOwned(sends)
		en.recvs, en.selfExec, en.sends = recvs, selfExec, sends
		if err != nil {
			return err
		}
		r.stats.UpdateWait += r.Now() - localDone

		if !failed && allDone(r.tasks) {
			return nil
		}
		r.stats.RecoveryRounds++
	}
}

// prepareForReceive makes the inout snapshots required before any update
// for t can be written to memory (copy-restore mode only; atomic mode
// leaves memory untouched until the full update has arrived).
func (en *intraEngine) prepareForReceive(r *R, t *task) {
	if en.opts.Mode != CopyRestore {
		return
	}
	for ai, tag := range t.def.tags {
		if tag != InOut || t.copies[ai] != nil {
			continue
		}
		d := r.machine.MemcpyDuration(t.args[ai].ByteSize())
		r.stats.CopyTime += d
		r.rank().Compute(d)
		t.copies[ai] = t.args[ai].Snapshot()
	}
}

// sendUpdates ships every non-in argument of a completed task to all other
// alive lanes (Algorithm 1, execute_task lines 33-34), appending the send
// requests to reqs.
func (en *intraEngine) sendUpdates(r *R, rc *mpi.Comm, reqs []*mpi.Request, secID, ti int, t *task) []*mpi.Request {
	for ai, tag := range t.def.tags {
		if tag == In {
			continue
		}
		enc := t.args[ai].Encode()
		wire := t.args[ai].ByteSize()
		for _, l := range en.p.AliveLanes() {
			if l == en.p.Lane {
				continue
			}
			r.rank().Compute(postOverhead)
			reqs = append(reqs, r.rank().IsendSized(rc, l, updateTag(secID, ti, ai), enc, nil, wire))
			r.stats.UpdateBytes += wire
		}
		if h := en.opts.Hooks.AfterArgSend; h != nil {
			h(secID, ti, ai)
		}
	}
	return reqs
}

// applyUpdate records one received argument update. In copy-restore mode
// the update is written to memory immediately (like an MPI receive into
// the application buffer); in atomic mode it is buffered. Once applied,
// the message goes back to the world pool (Value.Apply copies), and so
// does a duplicate of an update the task already has.
func (en *intraEngine) applyUpdate(t *task, arg int, msg *mpi.Message) {
	if t.recvd[arg] || t.done {
		en.w.RecycleMessage(msg)
		return
	}
	t.recvd[arg] = true
	if en.opts.Mode == CopyRestore {
		t.args[arg].Apply(msg.Data)
		en.w.RecycleMessage(msg)
		return
	}
	t.pendingD[arg] = msg
}

// finishReceivedTasks marks tasks complete once every non-in argument has
// arrived; in atomic mode this is where buffered updates are applied (and
// their memory cost charged).
func (en *intraEngine) finishReceivedTasks(r *R) {
	for _, t := range r.tasks {
		if t.done {
			continue
		}
		complete := true
		for ai, tag := range t.def.tags {
			if tag != In && !t.recvd[ai] {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		if en.opts.Mode == AtomicApply {
			for ai, tag := range t.def.tags {
				if tag == In {
					continue
				}
				d := r.machine.MemcpyDuration(t.args[ai].ByteSize())
				r.stats.CopyTime += d
				r.rank().Compute(d)
				t.args[ai].Apply(t.pendingD[ai].Data)
				en.w.RecycleMessage(t.pendingD[ai])
				t.pendingD[ai] = nil
			}
		}
		t.done = true
		r.stats.TasksReceived++
	}
}

func allDone(tasks []*task) bool {
	for _, t := range tasks {
		if !t.done {
			return false
		}
	}
	return true
}
