package sim

// Future is a one-shot completion variable. Processes block on Wait until
// some event (or another process) calls Complete. A Future may be completed
// at most once; waiters are woken in deterministic order.
//
// A Future can be embedded by value in a caller's own per-operation record
// (initialize it with Init), so posting an operation costs one allocation
// for the record rather than one more for the future.
type Future struct {
	e       *Engine
	epoch   uint32 // engine epoch at Init; use across Reset panics
	done    bool
	val     any
	err     error
	w0      *Proc   // first waiter: the overwhelmingly common case
	tw      Timer   // timer waiter: completion schedules tw.Fire at now
	waiters []*Proc // further waiters, in arrival order
}

// NewFuture creates an incomplete future on the engine.
func (e *Engine) NewFuture() *Future {
	f := &Future{}
	f.Init(e)
	return f
}

// Init (re)initializes an embedded future in place. The future is bound to
// the engine's current epoch: completing or waiting on it after a Reset
// panics, so a future leaked from a previous simulation cannot fire into
// the next one.
func (f *Future) Init(e *Engine) { *f = Future{e: e, epoch: e.epoch} }

func (f *Future) checkEpoch() {
	if f.epoch != f.e.epoch {
		panic("sim: Future used across Engine.Reset")
	}
}

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Value returns the completion value and error. Valid only once Done.
func (f *Future) Value() (any, error) { return f.val, f.err }

// Complete resolves the future with (v, err) and wakes all waiters at the
// current virtual time. Completing twice panics: it always indicates a
// protocol bug in a layer above.
func (f *Future) Complete(v any, err error) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.checkEpoch()
	f.done = true
	f.val = v
	f.err = err
	if f.w0 != nil {
		f.e.wakeAt(f.e.now, f.w0)
		f.w0 = nil
	}
	if f.tw != nil {
		f.e.AtTimer(f.e.now, f.tw)
		f.tw = nil
	}
	for _, w := range f.waiters {
		f.e.wakeAt(f.e.now, w)
	}
	f.waiters = nil
}

// NotifyTimer registers tm to be scheduled (an AtTimer at the completion
// time) when the future completes — the state-machine counterpart of Wait:
// completion costs exactly one scheduled event, just like waking a parked
// process would, but no goroutine handoff. A future supports one timer
// waiter; callers must check Done first — registering on a completed
// future panics, as does registering a second timer.
func (f *Future) NotifyTimer(tm Timer) {
	if f.done {
		panic("sim: NotifyTimer on a completed future")
	}
	if f.tw != nil {
		panic("sim: future already has a timer waiter")
	}
	f.tw = tm
}

// Wait blocks the calling process until the future completes and returns
// its value and error. The reason value is rendered only in deadlock
// reports; waiting on a single-waiter future allocates nothing.
func (f *Future) Wait(p *Proc, reason ParkReason) (any, error) {
	f.checkEpoch()
	for !f.done {
		if f.w0 == nil {
			f.w0 = p
		} else {
			f.waiters = append(f.waiters, p)
		}
		p.park(reason)
		// A stale wake-up is impossible for plain futures (each waiter is
		// woken exactly once, by Complete), but re-checking keeps the loop
		// robust if a future is shared.
	}
	return f.val, f.err
}
