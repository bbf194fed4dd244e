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

// BlockScheduler assigns each of a section's tasks to one of the given
// lanes by the paper's static policy (§V-A): with L lanes the first n/L
// launched tasks go to the first lane, the next n/L to the second, and so
// on. Assignments are computed over the full (configured) lane set on
// every replica, so they are identical everywhere by construction —
// replicas never need to agree dynamically on ownership. Tasks assigned to
// a lane that turns out to be dead are executed locally by every surviving
// replica that is missing their results (the "execute the task locally"
// option of §III-B2).
func BlockScheduler(nTasks int, lanes []int) []int {
	owner := make([]int, nTasks)
	l := len(lanes)
	for i := range owner {
		owner[i] = lanes[i*l/nTasks]
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

// Options configures the intra engine.
type Options struct {
	Mode  InoutMode
	Hooks Hooks
	// CostScale multiplies the modeled size of task arguments for update
	// transfers and inout copies, so scaled-down arrays are charged at the
	// modeled problem size. Defaults to 1.
	CostScale float64
}

// intraEngine implements the paper's protocol (Algorithm 1) for one
// replica.
type intraEngine struct {
	p        *replication.Proc
	opts     Options
	secSeq   int
	allLanes []int
}

func (en *intraEngine) mode() string { return "intra" }

// NewIntra creates a Runner for one replica under intra-parallelization.
func NewIntra(p *replication.Proc, opts Options) *R {
	if opts.CostScale <= 0 {
		opts.CostScale = 1
	}
	en := &intraEngine{p: p, opts: opts}
	for l := 0; l < p.System().Config().Degree; l++ {
		en.allLanes = append(en.allLanes, l)
	}
	return &R{
		comm:      replComm{p: p},
		engine:    en,
		machine:   p.R.Machine(),
		costScale: opts.CostScale,
	}
}

// updateTag encodes (section, task, argument) into a tag on the dedicated
// replica communicator (§V-A: updates are plain MPI messages over a
// dedicated communicator). Tags are unique per live section: sections are
// serialized per logical process, so the 15-bit section counter cannot
// collide while messages are in flight.
func updateTag(section, task, arg int) int {
	return (section&0x7fff)<<16 | (task&0x3ff)<<6 | arg&0x3f
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
	owner := BlockScheduler(len(r.tasks), en.allLanes)
	for {
		if len(en.p.AliveLanes()) == 0 {
			return &replication.LogicalRankLostError{Rank: en.p.Logical}
		}
		// Post receives for unfinished tasks owned by live peers
		// (snapshotting their inout arguments first: Algorithm 1,
		// receive_task_update lines 37-38).
		var recvs []pendingRecv
		var selfExec []*task
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
		var sends []*mpi.Request
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
			sends = append(sends, en.sendUpdates(r, rc, secID, ti, t)...)
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
			if err := r.rank().Wait(pr.req); err != nil {
				if mpi.IsPeerDead(err) {
					failed = true
					continue
				}
				return err
			}
			en.applyUpdate(r, pr.t, pr.arg, pr.req.Msg().Data)
		}
		en.finishReceivedTasks(r)

		if err := r.rank().Waitall(sends); err != nil {
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
		d := r.machine.MemcpyDuration(r.scaledBytes(t.args[ai]))
		r.stats.CopyTime += d
		r.rank().Compute(d)
		t.copies[ai] = t.args[ai].Snapshot()
	}
}

// sendUpdates ships every non-in argument of a completed task to all other
// alive lanes (Algorithm 1, execute_task lines 33-34).
func (en *intraEngine) sendUpdates(r *R, rc *mpi.Comm, secID, ti int, t *task) []*mpi.Request {
	var reqs []*mpi.Request
	for ai, tag := range t.def.tags {
		if tag == In {
			continue
		}
		enc := t.args[ai].Encode()
		wire := r.scaledBytes(t.args[ai])
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
// the application buffer); in atomic mode it is buffered.
func (en *intraEngine) applyUpdate(r *R, t *task, arg int, data []float64) {
	if t.recvd[arg] || t.done {
		return
	}
	t.recvd[arg] = true
	if en.opts.Mode == CopyRestore {
		t.args[arg].Apply(data)
		return
	}
	t.pendingD[arg] = data
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
				d := r.machine.MemcpyDuration(r.scaledBytes(t.args[ai]))
				r.stats.CopyTime += d
				r.rank().Compute(d)
				t.args[ai].Apply(t.pendingD[ai])
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
