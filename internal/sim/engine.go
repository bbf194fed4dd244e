package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Event kinds. The hot paths (process wake-ups, typed timers) carry their
// operand in the event node itself instead of a closure, so scheduling them
// allocates nothing once the engine's free list is warm.
const (
	evCall  uint8 = iota // fn()
	evWake               // resume(proc)
	evTimer              // tm.Fire()
)

// Event is a pooled event-queue node. Nodes are owned by the engine: they
// are recycled through a free list as soon as they fire or are canceled,
// so external code never holds a *Event — it holds an EventRef, which
// detects staleness via the node's generation counter.
type Event struct {
	e     *Engine
	t     Time
	seq   uint64
	fn    func() // evCall
	proc  *Proc  // evWake
	tm    Timer  // evTimer
	gen   uint32
	index int32 // heap position; idxFree when not queued, idxFIFO when in the now-FIFO
	kind  uint8
}

const (
	idxFree int32 = -1 // not queued (fired, canceled, or free)
	idxFIFO int32 = -2 // queued in the now-FIFO rather than the heap
)

// Timer is a typed scheduled callback: upper layers implement Fire on an
// object they already allocate per logical operation (a request, an
// in-flight message), so scheduling it costs no closure.
type Timer interface {
	Fire()
}

// EventRef is a cancelable handle on a scheduled event. It is a value: the
// generation captured at scheduling time makes a stale handle (one whose
// event already fired and whose node was recycled) a safe no-op. A handle
// held across Engine.Reset is not merely stale but a protocol bug — the
// epoch check turns any use of one into a panic instead of silent corruption
// of the next simulation.
type EventRef struct {
	ev    *Event
	gen   uint32
	epoch uint32
}

// Cancel removes the event from the queue immediately; the queue does not
// accumulate tombstones. Canceling an event that already fired (or was
// already canceled) is a no-op. Canceling across an Engine.Reset panics.
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil {
		return
	}
	if ev.e.epoch != r.epoch {
		panic("sim: EventRef used across Engine.Reset")
	}
	if ev.gen != r.gen || ev.index == idxFree {
		return
	}
	if ev.index == idxFIFO {
		ev.e.fifoRemove(ev)
	} else {
		ev.e.heapRemove(ev)
	}
	ev.e.recycle(ev)
}

// Time returns the virtual time the event is scheduled to fire at, or -1 if
// the handle is stale (the event fired or was canceled). Use across an
// Engine.Reset panics.
func (r EventRef) Time() Time {
	if r.ev == nil {
		return -1
	}
	if r.ev.e.epoch != r.epoch {
		panic("sim: EventRef used across Engine.Reset")
	}
	if r.ev.gen != r.gen || r.ev.index == idxFree {
		return -1
	}
	return r.ev.t
}

// heapEntry is one slot of the event queue: the ordering key is stored by
// value so comparisons never chase the node pointer.
type heapEntry struct {
	t   Time
	seq uint64
	ev  *Event
}

func entryLess(a, b heapEntry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Engine is a discrete-event simulation engine. It owns the virtual clock
// and the event queue and orchestrates cooperative execution of processes.
// An Engine must not be shared across OS threads while Run is active; all
// interaction happens from engine events or from process goroutines, which
// are mutually exclusive by construction.
//
// The event queue is a hand-rolled 4-ary heap of (time, seq) keys; event
// nodes are pooled through a free list, so the steady-state hot path
// (schedule, fire, recycle) performs no allocation.
type Engine struct {
	now   Time
	queue []heapEntry
	// fifo is the now-FIFO: events scheduled at the current instant, which
	// is most continuation events in a busy simulation. Because virtual time
	// never goes backwards and seq strictly increases, these entries are
	// already in (t, seq) order, so they skip the heap entirely — popping
	// the minimum of the FIFO head and the heap top yields exactly the
	// sequence a single heap would have.
	fifo      []heapEntry
	fifoHead  int
	fifoLive  int // non-canceled entries in fifo[fifoHead:]
	free      []*Event
	seq       uint64
	cur       *Proc
	procs     []*Proc
	idle      []*Proc // finished pooled goroutines awaiting reuse
	killHooks []func(*Proc)
	nEvents   uint64
	epoch     uint32 // bumped by Reset; EventRef/Future use across epochs panics
	pooling   bool   // process goroutines are reused across Reset
}

// New creates an empty simulation engine at virtual time zero.
func New() *Engine {
	return &Engine{}
}

// NewPooled creates an engine whose process goroutines are pooled: when a
// process function returns (or crashes), its goroutine parks for reuse by a
// later Spawn instead of exiting. Combined with Reset this lets a harness
// run thousands of simulations without respawning P goroutines each time.
// Call Shutdown when the engine is retired, or the pooled goroutines leak.
func NewPooled() *Engine {
	e := New()
	e.pooling = true
	return e
}

// Reset returns the engine to its initial state (virtual time zero, empty
// queue, no processes) so it can run another simulation. Queued events are
// recycled and the epoch advances, so any EventRef or Future leaked from
// before the Reset panics on use instead of firing into the next run.
// Processes still parked mid-function are crash-unwound first — with the
// kill hooks already cleared, so no stale upper-layer hook observes them.
// On a pooled engine the unwound and finished goroutines go to the idle
// pool for reuse by subsequent Spawns.
func (e *Engine) Reset() {
	if e.cur != nil {
		panic("sim: Reset called from process context")
	}
	for {
		ev := e.popNext()
		if ev == nil {
			break
		}
		e.recycle(ev)
	}
	clear(e.killHooks) // the hooks close over the finished run's world
	e.killHooks = e.killHooks[:0]
	for _, p := range e.procs {
		if p.state == stateParked {
			p.killed = true
			e.resume(p)
		}
	}
	for i, p := range e.procs {
		p.fn = nil
		p.userData = nil
		p.failure = nil
		if e.pooling {
			e.idle = append(e.idle, p)
		}
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	e.now = 0
	e.seq = 0
	e.nEvents = 0
	e.epoch++
}

// Shutdown terminates the pooled process goroutines of an engine created
// with NewPooled (after a Reset to unwind and collect any remaining
// processes). The engine must not be used afterwards.
func (e *Engine) Shutdown() {
	e.Reset()
	for i, p := range e.idle {
		p.die = true
		p.next() // the idle loop sees die and the coroutine ends
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events processed so far (for diagnostics).
func (e *Engine) Events() uint64 { return e.nEvents }

// Pending returns the number of events currently queued. Canceled events
// are removed immediately, so Pending reflects live events only.
func (e *Engine) Pending() int { return len(e.queue) + e.fifoLive }

// schedule allocates (or reuses) an event node and pushes it on the queue.
func (e *Engine) schedule(t Time, kind uint8) *Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{e: e}
	}
	ev.t = t
	ev.seq = e.seq
	ev.kind = kind
	if t == e.now {
		ev.index = idxFIFO
		e.fifo = append(e.fifo, heapEntry{t: t, seq: ev.seq, ev: ev})
		e.fifoLive++
	} else {
		e.heapPush(ev)
	}
	return ev
}

// popNext removes and returns the earliest queued event, or nil when both
// queues are empty.
func (e *Engine) popNext() *Event {
	for e.fifoHead < len(e.fifo) && e.fifo[e.fifoHead].ev == nil {
		e.fifoHead++ // skip canceled entries
	}
	if e.fifoHead == len(e.fifo) {
		e.fifo = e.fifo[:0]
		e.fifoHead = 0
		if len(e.queue) == 0 {
			return nil
		}
		return e.heapPop()
	}
	if len(e.queue) == 0 || entryLess(e.fifo[e.fifoHead], e.queue[0]) {
		ev := e.fifo[e.fifoHead].ev
		e.fifo[e.fifoHead].ev = nil
		e.fifoHead++
		e.fifoLive--
		ev.index = idxFree
		return ev
	}
	return e.heapPop()
}

// fifoRemove cancels a now-FIFO entry in place; popNext skips the hole.
func (e *Engine) fifoRemove(ev *Event) {
	for i := e.fifoHead; i < len(e.fifo); i++ {
		if e.fifo[i].ev == ev {
			e.fifo[i].ev = nil
			e.fifoLive--
			break
		}
	}
	ev.index = idxFree
}

// recycle returns a node (already off the queue) to the free list. The
// generation bump invalidates every outstanding EventRef to the node.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.tm = nil
	ev.index = idxFree
	e.free = append(e.free, ev)
}

// At schedules fn to run in engine context at virtual time t. Scheduling in
// the past is clamped to the present. The returned EventRef can cancel it.
func (e *Engine) At(t Time, fn func()) EventRef {
	ev := e.schedule(t, evCall)
	ev.fn = fn
	return EventRef{ev: ev, gen: ev.gen, epoch: e.epoch}
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (e *Engine) After(d Time, fn func()) EventRef { return e.At(e.now+d, fn) }

// AtTimer schedules tm.Fire to run in engine context at virtual time t.
// Unlike At, it captures no closure: the callback state lives in tm, which
// the caller has typically already allocated for its own bookkeeping.
func (e *Engine) AtTimer(t Time, tm Timer) EventRef {
	ev := e.schedule(t, evTimer)
	ev.tm = tm
	return EventRef{ev: ev, gen: ev.gen, epoch: e.epoch}
}

// wakeAt schedules a typed wake-up of p at time t: the common case (Sleep,
// Future completion, Spawn) that previously cost a closure per call.
func (e *Engine) wakeAt(t Time, p *Proc) {
	ev := e.schedule(t, evWake)
	ev.proc = p
}

// --- 4-ary heap over heapEntry, ordered by (t, seq) ---

func (e *Engine) heapPush(ev *Event) {
	i := len(e.queue)
	e.queue = append(e.queue, heapEntry{t: ev.t, seq: ev.seq, ev: ev})
	ev.index = int32(i)
	e.siftUp(i)
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ent := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(ent, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].ev.index = int32(i)
		i = parent
	}
	q[i] = ent
	ent.ev.index = int32(i)
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ent := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(q[c], q[min]) {
				min = c
			}
		}
		if !entryLess(q[min], ent) {
			break
		}
		q[i] = q[min]
		q[i].ev.index = int32(i)
		i = min
	}
	q[i] = ent
	ent.ev.index = int32(i)
}

// heapPop removes and returns the earliest event.
func (e *Engine) heapPop() *Event {
	q := e.queue
	ev := q[0].ev
	n := len(q) - 1
	q[0] = q[n]
	q[n] = heapEntry{}
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	ev.index = idxFree
	return ev
}

// heapRemove removes an arbitrary queued event via its stored index.
func (e *Engine) heapRemove(ev *Event) {
	i := int(ev.index)
	q := e.queue
	n := len(q) - 1
	q[i] = q[n]
	q[n] = heapEntry{}
	e.queue = q[:n]
	if i < n {
		e.siftDown(i)
		e.siftUp(i)
	}
	ev.index = idxFree
}

// OnKill registers a hook invoked (in engine context) whenever a process is
// crashed via Kill or Crash. Hooks run before the victim's goroutine unwinds
// observable state further and may schedule events (e.g. to fail pending
// receives).
func (e *Engine) OnKill(fn func(*Proc)) { e.killHooks = append(e.killHooks, fn) }

// DeadlockError reports that the event queue drained while processes were
// still blocked.
type DeadlockError struct {
	Blocked []string // "name: reason" for every parked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d processes blocked: %s",
		len(d.Blocked), strings.Join(d.Blocked, "; "))
}

// ProcFailureError reports that a process failed (panicked). If other
// processes were left blocked when the queue drained, the deadlock report
// is attached rather than masked: the failure usually explains the
// deadlock, and debugging needs both.
type ProcFailureError struct {
	Proc     string         // name of the failed process
	Failure  error          // the recovered panic, as an error
	Deadlock *DeadlockError // blocked-process report, if any (may be nil)
}

func (p *ProcFailureError) Error() string {
	s := fmt.Sprintf("sim: process %s failed: %v", p.Proc, p.Failure)
	if p.Deadlock != nil {
		s += " (" + p.Deadlock.Error() + ")"
	}
	return s
}

// Unwrap exposes both the underlying failure and, when present, the
// blocked-process report, so errors.Is/errors.As reach either.
func (p *ProcFailureError) Unwrap() []error {
	if p.Deadlock != nil {
		return []error{p.Failure, p.Deadlock}
	}
	return []error{p.Failure}
}

// Run executes events until the queue is empty. It returns a
// *ProcFailureError if a process failed (with any deadlock report
// attached), and a *DeadlockError if processes remain blocked afterwards.
func (e *Engine) Run() error {
	for {
		ev := e.popNext()
		if ev == nil {
			break
		}
		e.now = ev.t
		e.nEvents++
		// Copy the payload out and recycle before dispatch: the callback
		// may schedule new events, which can then reuse this node.
		kind, p, fn, tm := ev.kind, ev.proc, ev.fn, ev.tm
		e.recycle(ev)
		switch kind {
		case evWake:
			e.resume(p)
		case evTimer:
			tm.Fire()
		default:
			fn()
		}
	}
	var blocked []string
	var failed *Proc
	for _, p := range e.procs {
		if p.state == stateParked {
			blocked = append(blocked, p.name+": "+p.why.String())
		}
		if p.failure != nil && failed == nil {
			failed = p
		}
	}
	var dl *DeadlockError
	if len(blocked) > 0 {
		sort.Strings(blocked)
		dl = &DeadlockError{Blocked: blocked}
	}
	if failed != nil {
		return &ProcFailureError{Proc: failed.name, Failure: failed.failure, Deadlock: dl}
	}
	if dl != nil {
		return dl
	}
	return nil
}

// resume hands control to p (a coroutine switch) and regains it when p
// parks, exits, or crashes. Must be called from engine context.
func (e *Engine) resume(p *Proc) {
	if p.state != stateParked {
		return // already dead/done; stale wake-up
	}
	p.state = stateRunning
	prev := e.cur
	e.cur = p
	p.next()
	e.cur = prev
}

// Unblock resumes a process parked via Proc.Block, running it inline until
// it parks again or finishes — exactly what dispatching a scheduled wake
// event would do. It must be called from engine context (an event callback):
// state machines that complete a logical operation on behalf of a parked
// process use it as the final hand-back.
func (e *Engine) Unblock(p *Proc) {
	if e.cur != nil {
		panic("sim: Unblock called from process context")
	}
	e.resume(p)
}

// Stats is a snapshot of engine-level counters, taken after a run for
// harness-level reporting (e.g. the experiment sweep results).
type Stats struct {
	Now    Time   // current virtual time
	Events uint64 // events processed so far
	Procs  int    // processes ever spawned
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats { return Stats{Now: e.now, Events: e.nEvents, Procs: len(e.procs)} }

func (e *Engine) runKillHooks(p *Proc) {
	for _, h := range e.killHooks {
		h(p)
	}
}
