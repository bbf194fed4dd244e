package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Ctx is passed to task functions so they can charge the virtual CPU cost
// of the computation they perform.
type Ctx interface {
	// Compute charges w of compute time to the executing replica.
	Compute(w perf.Work)
}

// TaskFunc is the body of an intra-parallel task. It performs real
// computation on args (in the declared order of its registration) and
// charges its cost through c.
type TaskFunc func(c Ctx, args []Value)

// TaskID identifies a registered task type within the current section.
type TaskID int

// Stats aggregates per-replica runtime accounting used to regenerate the
// paper's figures.
type Stats struct {
	SectionTime    sim.Time // wall time between SectionBegin and SectionEnd return
	SectionCompute sim.Time // task compute charged inside sections
	UpdateWait     sim.Time // section-end time after local tasks finished (Fig 5a dashed area)
	CopyTime       sim.Time // inout snapshot/restore and atomic-apply overhead
	OutsideCompute sim.Time // compute charged outside sections
	Sections       int
	TasksRun       int   // tasks executed locally
	TasksReceived  int   // tasks whose updates were received from a peer
	TasksRecovered int   // tasks re-executed or re-sent due to a failure
	UpdateBytes    int64 // update payload bytes sent to peers
	RecoveryRounds int   // extra section-end scheduling rounds after failures
}

// Runner is the logical-process programming interface the applications are
// written against: the MPI-style communication they use (sends, receives
// and a scalar sum) plus the paper's section API (§III-C). Three engines
// implement it: native, classic replication, and intra-parallelization.
type Runner interface {
	LogicalRank() int
	LogicalSize() int
	Now() sim.Time

	// SendSized models a message whose on-wire payload is payloadBytes even
	// though the in-memory array is smaller (scaled experiment runs).
	SendSized(dst, tag int, data []float64, payloadBytes int64) error
	Recv(src, tag int) ([]float64, error)
	// AllreduceScalar sums v across all logical ranks.
	AllreduceScalar(v float64) (float64, error)

	// Compute charges work performed outside intra-parallel sections.
	Compute(w perf.Work)

	// SectionBegin opens an intra-parallel section (Intra_Section_begin).
	SectionBegin()
	// TaskRegister declares a task type executed by fn with the given
	// argument tags (Intra_Task_register).
	TaskRegister(fn TaskFunc, tags ...ArgTag) TaskID
	// TaskLaunch instantiates a task with concrete arguments
	// (Intra_Task_launch). Arguments must match the registered tags.
	TaskLaunch(id TaskID, args ...Value)
	// SectionEnd runs the section protocol to completion
	// (Intra_Section_end): on return, every live replica of this logical
	// process holds the results of every task.
	SectionEnd() error

	Stats() *Stats
}

// comm abstracts the logical communication substrate (plain MPI for the
// native engine, the replication layer otherwise).
type comm interface {
	logicalRank() int
	logicalSize() int
	sendSized(dst, tag int, data []float64, payloadBytes int64) error
	recv(src, tag int) ([]float64, error)
	allreduce(data []float64) error // element-wise sum
	rank() *mpi.Rank
}

type mpiComm struct{ r *mpi.Rank }

func (c mpiComm) logicalRank() int { return c.r.Rank() }
func (c mpiComm) logicalSize() int { return c.r.Size() }
func (c mpiComm) sendSized(dst, tag int, data []float64, payloadBytes int64) error {
	return c.r.SendSized(c.r.World(), dst, tag, data, nil, payloadBytes)
}
func (c mpiComm) recv(src, tag int) ([]float64, error) {
	msg, err := c.r.Recv(c.r.World(), src, tag)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}
func (c mpiComm) allreduce(data []float64) error {
	return c.r.Allreduce(c.r.World(), mpi.OpSum, data)
}
func (c mpiComm) rank() *mpi.Rank { return c.r }

type replComm struct{ p *replication.Proc }

func (c replComm) logicalRank() int { return c.p.Logical }
func (c replComm) logicalSize() int { return c.p.LogicalSize() }
func (c replComm) sendSized(dst, tag int, data []float64, payloadBytes int64) error {
	return c.p.SendSized(dst, tag, data, nil, payloadBytes)
}
func (c replComm) recv(src, tag int) ([]float64, error) {
	msg, err := c.p.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}
func (c replComm) allreduce(data []float64) error { return c.p.Allreduce(data) }
func (c replComm) rank() *mpi.Rank                { return c.p.R }

// sectionEngine runs a buffered section to completion.
type sectionEngine interface {
	runSection(r *R) error
}

// R is the concrete Runner shared by all three engines. Its section
// engine is one of the two it embeds, so a runner is one allocation, and
// a recycled runner (Scratch) keeps its task records, per-argument slices
// and the intra engine's section scratch from run to run.
type R struct {
	comm
	engine    sectionEngine
	machine   perf.Machine
	rec       *Trace // non-nil while recording the logical-op trace
	stats     Stats
	inSection bool
	secStart  sim.Time
	defs      []taskDef
	tasks     []*task
	local     localEngine
	intra     intraEngine
	reduceBuf [1]float64 // AllreduceScalar's cell, replayed allreduces' too
}

type taskDef struct {
	fn   TaskFunc
	tags []ArgTag
}

// task is one launched task. R keeps its task records, per-argument slices
// included, across sections and refills them on launch.
type task struct {
	idx      int
	def      taskDef
	args     []Value
	done     bool
	copies   []Value        // inout snapshots (copy-restore mode)
	recvd    []bool         // per-arg: update applied (copy mode) or buffered (atomic)
	pendingD []*mpi.Message // per-arg buffered update (atomic mode), applied on completion
}

// LogicalRank returns the logical MPI rank.
func (r *R) LogicalRank() int { return r.logicalRank() }

// LogicalSize returns the number of logical ranks.
func (r *R) LogicalSize() int { return r.logicalSize() }

// Now returns the current virtual time.
func (r *R) Now() sim.Time { return r.rank().Now() }

// SendSized performs a logical send with an explicit modeled payload size.
func (r *R) SendSized(dst, tag int, data []float64, payloadBytes int64) error {
	r.rec.comm(traceSend, dst, tag, payloadBytes)
	return r.sendSized(dst, tag, data, payloadBytes)
}

// Recv performs a logical receive.
func (r *R) Recv(src, tag int) ([]float64, error) {
	r.rec.comm(traceRecv, src, tag, 0)
	return r.recv(src, tag)
}

// AllreduceScalar sums v across all logical ranks.
func (r *R) AllreduceScalar(v float64) (float64, error) {
	r.rec.comm(traceAllreduce, 0, 0, 0)
	r.reduceBuf[0] = v
	if err := r.allreduce(r.reduceBuf[:]); err != nil {
		return 0, err
	}
	return r.reduceBuf[0], nil
}

// Compute charges work performed outside sections.
func (r *R) Compute(w perf.Work) {
	d := r.machine.Duration(w)
	r.stats.OutsideCompute += d
	r.rec.compute(d)
	r.rank().ComputeWork(w)
}

// Stats returns the runtime counters (live; callers may snapshot by copy).
func (r *R) Stats() *Stats { return &r.stats }

// SectionBegin opens an intra-parallel section. Sections must not nest and
// must not contain message-passing communication (Definition 1).
func (r *R) SectionBegin() {
	if r.inSection {
		panic("core: nested intra-parallel sections are not allowed")
	}
	r.inSection = true
	r.secStart = r.Now()
	r.defs = r.defs[:0]
	r.tasks = r.tasks[:0]
}

// TaskRegister declares a task type for the current section.
func (r *R) TaskRegister(fn TaskFunc, tags ...ArgTag) TaskID {
	if !r.inSection {
		panic("core: TaskRegister outside a section")
	}
	r.defs = append(r.defs, taskDef{fn: fn, tags: tags})
	return TaskID(len(r.defs) - 1)
}

// TaskLaunch instantiates a registered task with concrete arguments.
func (r *R) TaskLaunch(id TaskID, args ...Value) {
	if !r.inSection {
		panic("core: TaskLaunch outside a section")
	}
	def := r.defs[id]
	if len(args) != len(def.tags) {
		panic(fmt.Sprintf("core: task %d launched with %d args, registered with %d",
			id, len(args), len(def.tags)))
	}
	// SectionBegin truncated r.tasks; the records past its length are the
	// previous sections', ready for reuse.
	n := len(r.tasks)
	if n < cap(r.tasks) {
		r.tasks = r.tasks[:n+1]
	} else {
		r.tasks = append(r.tasks, nil)
	}
	t := r.tasks[n]
	if t == nil {
		t = new(task)
		r.tasks[n] = t
	}
	t.idx, t.def, t.args, t.done = n, def, args, false
	t.copies = cleared(t.copies, len(args))
	t.recvd = cleared(t.recvd, len(args))
	t.pendingD = cleared(t.pendingD, len(args))
}

// cleared returns s resized to n zero elements, reusing its backing array
// when it is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SectionEnd completes the section under the configured engine.
func (r *R) SectionEnd() error {
	if !r.inSection {
		panic("core: SectionEnd without SectionBegin")
	}
	r.rec.section(r.tasks)
	err := r.engine.runSection(r)
	r.inSection = false
	r.stats.Sections++
	r.stats.SectionTime += r.Now() - r.secStart
	return err
}

// taskCtx charges compute performed inside a task.
type taskCtx struct {
	r *R
}

func (c taskCtx) Compute(w perf.Work) { c.charge(c.r.machine.Duration(w)) }

// charge charges d of task compute; a replayed task body charges its
// recorded compute through it.
func (c taskCtx) charge(d sim.Time) {
	c.r.stats.SectionCompute += d
	c.r.rec.taskCompute(d)
	c.r.rank().Compute(d)
}

// runTaskLocally executes a task's body after restoring inout snapshots if
// a copy exists (Algorithm 1, execute_task lines 30-32).
func (r *R) runTaskLocally(t *task) {
	for i, tag := range t.def.tags {
		if tag == InOut && t.copies[i] != nil {
			d := r.machine.MemcpyDuration(t.args[i].ByteSize())
			r.stats.CopyTime += d
			r.rank().Compute(d)
			t.args[i].Restore(t.copies[i])
		}
	}
	r.rec.startTask(t.idx)
	t.def.fn(taskCtx{r: r}, t.args)
	r.stats.TasksRun++
}
