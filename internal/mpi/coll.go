package mpi

import "repro/internal/sim"

// collSM is a per-rank allreduce state machine. Instead of parking the
// calling process once per hop (goroutine handoff per message), the caller
// parks once per allreduce and the machine advances inside engine event
// callbacks: each completed request schedules exactly one continuation event
// via Future.NotifyTimer, at the same virtual time and sequence position a
// process wake-up would have occupied, so the engine's event sequence — and
// with it every same-timestamp tie-break and the sim_events counter — is
// identical to the blocking implementation it replaced.
//
// One machine lives on each rankState and is reused across collectives
// (ranks run at most one collective at a time); its requests and messages
// cycle through the world pools, so steady-state collectives allocate
// nothing.
type collSM struct {
	st *rankState
	c  *Comm

	sub int // phase currently running: opReduce, then opBcast

	n, me int

	phase int
	mask  int // binomial tree mask

	data []float64 // caller buffer
	rop  ReduceOp

	sreq, rreq *Request
	blockedAt  sim.Time

	proc   *sim.Proc // the parked caller, once parked
	active bool
	parked bool
	done   bool
	err    error
}

// startColl readies the rank's pooled machine for one allreduce, starting
// with its reduce phase.
func (r *Rank) startColl(c *Comm) *collSM {
	me := c.CommRank(r.st.rank)
	if me < 0 {
		panic(errNotMember(r.st.rank, c.id))
	}
	sm := r.st.coll
	if sm == nil {
		sm = &collSM{st: r.st}
		r.st.coll = sm
	}
	if sm.active {
		panic("mpi: concurrent collectives on one rank")
	}
	sm.active = true
	sm.c = c
	sm.sub = opReduce
	sm.n = c.Size()
	sm.me = me
	sm.phase = 0
	sm.mask = 1
	return sm
}

// runColl drives the machine from the caller's process context. If it
// cannot finish inline, the caller parks once; the machine's final
// continuation event hands control back via Engine.Unblock.
func (r *Rank) runColl(sm *collSM) error {
	sm.advance()
	if !sm.done {
		sm.proc = r.p
		sm.parked = true
		r.p.Block(sim.ParkReason{Kind: sim.WaitColl, A: opAllreduce})
	}
	err := sm.err
	sm.release()
	return err
}

// release returns the machine to its idle state for reuse. Requests still
// in flight on error paths are deliberately not recycled.
func (sm *collSM) release() {
	sm.c = nil
	sm.data = nil
	sm.rop = nil
	sm.sreq = nil
	sm.rreq = nil
	sm.proc = nil
	sm.active = false
	sm.parked = false
	sm.done = false
	sm.err = nil
}

// Fire is the continuation: the request the machine blocked on has
// completed, so account the blocked span and keep advancing. A completion
// arriving after the rank crashed is dropped, exactly as a stale process
// wake-up would be.
func (sm *collSM) Fire() {
	if sm.st.dead {
		return
	}
	sm.st.stats.Blocked += sm.st.w.e.Now() - sm.blockedAt
	sm.advance()
	if sm.done && sm.parked {
		sm.st.w.e.Unblock(sm.proc)
	}
}

// advance runs the current phase until it blocks or the allreduce
// completes.
func (sm *collSM) advance() {
	for {
		var blocked bool
		if sm.sub == opBcast {
			blocked = sm.stepBcast()
		} else {
			blocked = sm.stepReduce()
		}
		if blocked || sm.done {
			return
		}
	}
}

// finish ends the current phase. A successful reduce phase chains into
// the broadcast of the result; everything else completes the allreduce.
func (sm *collSM) finish(err error) bool {
	if err == nil && sm.sub == opReduce {
		sm.sub = opBcast
		sm.mask = 0
		sm.phase = 0
		return false
	}
	sm.done = true
	sm.err = err
	return false
}

// yield blocks the machine on rq unless it already completed inline — the
// exact condition under which the blocking implementation parked.
func (sm *collSM) yield(rq *Request) bool {
	if rq.fut.Done() {
		return false
	}
	sm.blockedAt = sm.st.w.e.Now()
	rq.fut.NotifyTimer(sm)
	return true
}

// takeRecv consumes the completed broadcast receive: the payload is
// copied into the caller's buffer and the pooled message and request are
// recycled.
func (sm *collSM) takeRecv() error {
	rq := sm.rreq
	sm.rreq = nil
	if rq.err != nil {
		return rq.err
	}
	copy(sm.data, rq.msg.Data)
	sm.st.w.putMessage(rq.msg)
	sm.st.w.putRequest(rq)
	return nil
}

// takeSend consumes the completed send and recycles the request.
func (sm *collSM) takeSend() error {
	rq := sm.sreq
	sm.sreq = nil
	if rq.err != nil {
		return rq.err
	}
	sm.st.w.putRequest(rq)
	return nil
}

// stepBcast: binomial tree rooted at rank 0. Every other rank receives
// from its parent, then every rank forwards to its children in descending
// mask order with a blocking send each.
func (sm *collSM) stepBcast() bool {
	st := sm.st
	for {
		switch sm.phase {
		case 0:
			if sm.me == 0 {
				sm.mask = 1
				for sm.mask < sm.n {
					sm.mask <<= 1
				}
				sm.phase = 2
				continue
			}
			mask := 1
			for sm.me&mask == 0 {
				mask <<= 1
			}
			sm.mask = mask
			sm.rreq = st.irecv(sm.c, sm.me-mask, -opBcast)
			sm.phase = 1
		case 1:
			if sm.yield(sm.rreq) {
				return true
			}
			if err := sm.takeRecv(); err != nil {
				return sm.finish(err)
			}
			sm.phase = 2
		case 2:
			sm.mask >>= 1
			if sm.mask < 1 {
				return sm.finish(nil)
			}
			if child := sm.me + sm.mask; child < sm.n {
				sm.sreq = st.isend(sm.c, child, -opBcast, sm.data, nil, 8*int64(len(sm.data)))
				sm.phase = 3
			}
		case 3:
			if sm.yield(sm.sreq) {
				return true
			}
			if err := sm.takeSend(); err != nil {
				return sm.finish(err)
			}
			sm.phase = 2
		}
	}
}

// stepReduce: binomial tree rooted at rank 0. At each mask a rank either
// sends its partial result to its parent and is done, or receives and
// folds a child's data.
func (sm *collSM) stepReduce() bool {
	st := sm.st
	for {
		switch sm.phase {
		case 0:
			if sm.mask >= sm.n {
				return sm.finish(nil)
			}
			if sm.me&sm.mask != 0 {
				sm.sreq = st.isend(sm.c, sm.me-sm.mask, -opReduce, sm.data, nil, 8*int64(len(sm.data)))
				sm.phase = 2
				continue
			}
			if child := sm.me + sm.mask; child < sm.n {
				sm.rreq = st.irecv(sm.c, child, -opReduce)
				sm.phase = 1
				continue
			}
			sm.mask <<= 1
		case 1:
			if sm.yield(sm.rreq) {
				return true
			}
			rq := sm.rreq
			sm.rreq = nil
			if rq.err != nil {
				return sm.finish(rq.err)
			}
			sm.rop(sm.data, rq.msg.Data)
			st.w.putMessage(rq.msg)
			st.w.putRequest(rq)
			sm.mask <<= 1
			sm.phase = 0
		case 2:
			if sm.yield(sm.sreq) {
				return true
			}
			return sm.finish(sm.takeSend())
		}
	}
}
