// Package mpi implements an MPI-flavoured message-passing runtime on top of
// the discrete-event simulator.
//
// It provides ranks, communicators, tagged point-to-point messaging
// (blocking and nonblocking, with Wait/Waitall) and one collective,
// Allreduce, whose one reduction operator is OpSum: the applications only
// sum-reduce. It stands in for Open MPI 1.7 in the original evaluation.
//
// Failure semantics are crash-stop: when a rank is killed, messages it
// fully transmitted are still delivered, in-flight transmissions are lost,
// and receives that can no longer be satisfied fail with *PeerDeadError —
// the hook the replication layer builds on.
package mpi

import (
	"fmt"
	"strconv"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stats aggregates per-rank accounting, used for the paper's time
// breakdowns ("sections" vs "others", update-transfer time).
type Stats struct {
	Compute   sim.Time // time charged via Compute/ComputeWork
	Blocked   sim.Time // time blocked in Recv/Wait/collectives
	BytesSent int64
	MsgsSent  int64
}

// World is the set of simulated MPI processes ("physical processes" in the
// paper's terminology) plus the interconnect they communicate over.
type World struct {
	e         *sim.Engine
	net       *simnet.Network
	machine   perf.Machine
	ranks     []*rankState
	placement func(rank int) int
	commSeq   int
	reqSeq    uint64
	world     *Comm
	comms     []*Comm // every communicator of the world, from its scratch
	nComms    int     // how many of comms the world has handed out
	deathSubs []func(rank int)

	sc *Scratch // the free lists and rank states the world draws from
}

// Scratch is what a world draws from and Reclaim hands back: the free
// lists of requests, messages (with their payload buffers), outMsg
// transfer nodes and single-shot channel states, plus the per-rank states
// (each with its matching map and in-flight list) and the communicators.
// NewWorld gives every world a private scratch, so independent worlds
// stay independent without locking. A harness that builds many short-lived
// worlds in sequence on one goroutine — the pooled sweep worker
// simulating one campaign trial per world — builds each of them on the
// same Scratch (Scratch.NewWorld), so every trial after the first runs on
// warm pools and recycled rank states instead of re-allocating its steady
// state from nothing.
type Scratch struct {
	reqFree []*Request
	msgFree []*Message
	omFree  []*outMsg
	chFree  []*chanState
	doomed  []*Request // failed receives being collected after a death
	// The rank states and communicators the next world takes whole; it
	// uses a prefix of each and Reclaim returns them, reset.
	ranks []*rankState
	comms []*Comm
}

// NewScratch returns an empty scratch for Scratch.NewWorld.
func NewScratch() *Scratch { return &Scratch{} }

type rankState struct {
	w         *World
	rank      int
	node      int
	proc      *sim.Proc
	dead      bool
	chans     map[matchKey]*chanState // per-(src,tag,comm) matching state
	outgoing  []*outMsg               // transfers this rank has in flight
	delivered int                     // outgoing entries delivered since last prune
	stats     Stats
	coll      *collSM    // pooled collective state machine (lazy)
	scalar    [1]float64 // scratch cell backing AllreduceScalar

	// The launched program, the handle it runs on, and the process body
	// that hands it over, bound once per rank state: a recycled rank state
	// launches without allocating a closure or a Rank.
	main  func(r *Rank)
	rk    Rank
	start func(p *sim.Proc)
}

// run is the rank's process body.
func (st *rankState) run(p *sim.Proc) {
	st.rk = Rank{st: st, p: p}
	st.main(&st.rk)
}

// chanState is the matching state of one (src, tag, comm) channel. Keeping
// the send sequence, in-flight count and both match queues behind a single
// map entry means each message costs a couple of key hashes instead of one
// per field — and hot paths that already hold the pointer (delivery, a
// pending request) pay none at all.
type chanState struct {
	sendSeq    uint64     // per-channel send sequence (sender side)
	inflight   int        // messages en route to this rank (receiver side)
	pending    []*Request // posted receives in arrival order (receiver side)
	unexpected []*Message // arrived unmatched, in send order (receiver side)
}

// chanFor returns the channel state for key, creating it on first use.
// Fresh states come from the world pool: single-shot collective channels
// cycle through it once per tree hop, match-queue backing arrays and all.
func (st *rankState) chanFor(key matchKey) *chanState {
	if ch := st.chans[key]; ch != nil {
		return ch
	}
	sc := st.w.sc
	n := len(sc.chFree)
	if n == 0 {
		// Refill by the slab: at 512 ranks a single collective floats a few
		// thousand single-shot channels before the first retire, and filling
		// that inventory one object at a time dominates the allocation
		// profile. One backing array per chanSlab states amortizes it away.
		slab := make([]chanState, chanSlab)
		for i := range slab {
			sc.chFree = append(sc.chFree, &slab[i])
		}
		n = chanSlab
	}
	ch := sc.chFree[n-1]
	sc.chFree[n-1] = nil
	sc.chFree = sc.chFree[:n-1]
	st.chans[key] = ch
	return ch
}

// retireSingleShot drops a drained single-shot channel from the matching
// map and recycles its state. Negative tags are single-shot (see
// sendSeqFor): a collective round's tree hop, or one intra update, carries
// at most one message per (src, tag) channel, so once that message is
// consumed the entry is dead weight — it would bloat the channel map that
// every death scan iterates, and cost an allocation per hop or update. A
// channel whose message is never consumed keeps its entry until Reclaim.
// Application tags (>= 0) are reusable and never retired.
func (st *rankState) retireSingleShot(key matchKey, ch *chanState) {
	if key.tag >= 0 || len(ch.pending) > 0 || len(ch.unexpected) > 0 || ch.inflight > 0 {
		return
	}
	delete(st.chans, key)
	ch.sendSeq = 0
	st.w.sc.chFree = append(st.w.sc.chFree, ch)
}

// outMsg is one in-flight transmission. The simnet Transfer is embedded by
// value and the outMsg itself is the typed delivery callback, so a send
// allocates neither a separate Transfer nor a delivery closure. The
// destination channel state rides along, so delivery hashes no keys.
type outMsg struct {
	tr        simnet.Transfer
	srcSt     *rankState // sending rank (owner of the in-flight list)
	dstSt     *rankState // destination rank
	dstCh     *chanState // destination channel state
	msg       *Message
	dst       int // destination world rank
	key       matchKey
	delivered bool
}

// Fire delivers the message at the arrival time (sim.Timer).
func (om *outMsg) Fire() {
	om.delivered = true
	om.srcSt.delivered++ // lets the sender prune as garbage accrues
	msg := om.msg
	om.msg = nil // the receiver owns it now; drop our reference
	om.dstCh.inflight--
	om.dstSt.deliver(om.key, om.dstCh, msg)
}

type matchKey struct {
	src  int
	tag  int
	comm int
}

// putRequest returns a request whose handle did not escape to the pool.
func (st *rankState) putRequest(rq *Request) { st.w.putRequest(rq) }

// putRequest clears the request whole, its future included, so a pooled
// request holds nothing of the world that last used it.
func (w *World) putRequest(rq *Request) {
	*rq = Request{}
	w.sc.reqFree = append(w.sc.reqFree, rq)
}

// Pool slab sizes: when a free list runs dry it refills with one backing
// array of this many objects instead of allocating them one by one. Large
// worlds float thousands of pooled objects before the first recycle (512
// ranks hold up to pruneDelivered outMsgs each), and slab refills keep that
// warm-up from dominating the allocation profile. Requests are allocated
// one at a time (see newRequest).
const (
	outMsgSlab  = 64
	chanSlab    = 32
	messageSlab = 16
)

// getMessage returns a pooled message with a payload buffer of length n.
func (w *World) getMessage(n int) *Message {
	sc := w.sc
	l := len(sc.msgFree)
	if l == 0 {
		slab := make([]Message, messageSlab)
		for i := range slab {
			sc.msgFree = append(sc.msgFree, &slab[i])
		}
		l = messageSlab
	}
	m := sc.msgFree[l-1]
	sc.msgFree[l-1] = nil
	sc.msgFree = sc.msgFree[:l-1]
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	return m
}

// putMessage recycles a message, payload buffer and all. The caller must
// hold the only reference to it (see Message for who does).
func (w *World) putMessage(m *Message) {
	m.Meta = nil
	w.sc.msgFree = append(w.sc.msgFree, m)
}

func (w *World) getOutMsg() *outMsg {
	sc := w.sc
	l := len(sc.omFree)
	if l == 0 {
		slab := make([]outMsg, outMsgSlab)
		for i := range slab {
			sc.omFree = append(sc.omFree, &slab[i])
		}
		l = outMsgSlab
	}
	om := sc.omFree[l-1]
	sc.omFree[l-1] = nil
	sc.omFree = sc.omFree[:l-1]
	om.delivered = false
	return om
}

// putOutMsg clears the node whole, its Transfer's event handle included,
// so a pooled node holds nothing of the world or engine that last used it.
func (w *World) putOutMsg(om *outMsg) {
	*om = outMsg{}
	w.sc.omFree = append(w.sc.omFree, om)
}

// Reclaim returns the world's recyclable state to its scratch once a run
// has fully drained: delivered transfer nodes, channel states, the
// messages and receive requests still queued unmatched, and the rank
// states and communicators themselves, reset. A harness that runs many
// short-lived worlds on one shared scratch calls it right before dropping
// the world — without it most of the pooled inventory dies with the
// world's own structures and every trial starts cold again. Nothing the
// scratch keeps points back at the world afterwards, so the world is
// garbage once its caller drops it. The world must not be used afterwards.
func (w *World) Reclaim() {
	for _, st := range w.ranks {
		for i, om := range st.outgoing {
			if !om.delivered {
				// The run has drained; an undelivered transfer can no longer
				// fire, so its payload message is exclusively ours again.
				w.putMessage(om.msg)
			}
			w.putOutMsg(om)
			st.outgoing[i] = nil
		}
		st.outgoing = st.outgoing[:0]
		st.delivered = 0
		for _, ch := range st.chans {
			for i, m := range ch.unexpected {
				w.putMessage(m)
				ch.unexpected[i] = nil
			}
			ch.unexpected = ch.unexpected[:0]
			for i, rq := range ch.pending {
				w.putRequest(rq)
				ch.pending[i] = nil
			}
			ch.pending = ch.pending[:0]
			ch.inflight = 0
			ch.sendSeq = 0
			w.sc.chFree = append(w.sc.chFree, ch)
		}
		clear(st.chans)
		if st.coll != nil {
			st.coll.release()
		}
		st.w, st.proc, st.dead, st.stats = nil, nil, false, Stats{}
		st.main, st.rk = nil, Rank{}
	}
	for _, c := range w.comms[:w.nComms] {
		c.w, c.pos = nil, nil
	}
	w.sc.ranks, w.sc.comms = w.ranks[:cap(w.ranks)], w.comms
	w.ranks, w.comms, w.nComms = nil, nil, 0
}

// Message is a delivered point-to-point message.
//
// Ownership: every send copies its payload into a pooled Message, and the
// receiver owns the message it receives. It may hand it back with
// World.RecycleMessage once it holds no other reference to the message or
// its Data; a receiver that keeps msg.Data simply never returns it. No
// application receive buffer is recycled: only the collectives, the
// replication layer's duplicate and tree receives, the intra engine's
// updates (once applied to the replica's memory), Reclaim, canceled
// transfers and deliveries to a crashed rank return messages to the pool.
type Message struct {
	Src, Dst int // world ranks
	Tag      int
	Data     []float64 // numeric payload (owned by the receiver)
	Meta     any       // immutable side information (headers etc.)
	Bytes    int64     // modeled wire size
	seq      uint64    // per-(src,tag,comm) send sequence, for FIFO order
}

// NewWorld creates n ranks on the given network using block placement
// (net.NodeOf) unless placement is non-nil. machine converts perf.Work to
// virtual compute time. The world draws from a private scratch.
func NewWorld(e *sim.Engine, net *simnet.Network, n int, machine perf.Machine, placement func(int) int) *World {
	return NewScratch().NewWorld(e, net, n, machine, placement)
}

// NewWorld is the package-level NewWorld on sc: the world draws from (and
// Reclaim recycles into) sc's free lists, and takes sc's rank states and
// communicators until Reclaim hands them back. The caller must ensure
// worlds sharing a scratch never run concurrently: the pools are unlocked
// by design, one engine drives one world at a time. A world that is never
// reclaimed keeps what it took, and the next world on sc allocates afresh.
func (sc *Scratch) NewWorld(e *sim.Engine, net *simnet.Network, n int, machine perf.Machine, placement func(int) int) *World {
	if placement == nil {
		placement = net.NodeOf
	}
	w := &World{e: e, net: net, machine: machine, placement: placement, sc: sc}
	ranks := sc.ranks
	w.comms, sc.ranks, sc.comms = sc.comms, nil, nil
	if len(ranks) < n {
		slab := make([]rankState, n-len(ranks)) // one allocation for the missing ranks
		for i := range slab {
			ranks = append(ranks, &slab[i])
		}
	}
	w.ranks = ranks[:n:len(ranks)] // Reclaim returns the whole list
	for i, st := range w.ranks {
		node := placement(i)
		if node < 0 || node >= net.Nodes() {
			panic(fmt.Sprintf("mpi: rank %d placed on invalid node %d", i, node))
		}
		st.w, st.rank, st.node = w, i, node
		if st.chans == nil {
			st.chans = make(map[matchKey]*chanState)
		}
	}
	w.world = w.newComm(n)
	for i := range w.world.members {
		w.world.members[i] = i
	}
	e.OnKill(w.onProcKilled)
	return w
}

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.e }

// Net returns the interconnect.
func (w *World) Net() *simnet.Network { return w.net }

// Machine returns the per-core compute model.
func (w *World) Machine() perf.Machine { return w.machine }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// World returns the communicator containing every rank.
func (w *World) World() *Comm { return w.world }

// NodeOf returns the node a rank is placed on.
func (w *World) NodeOf(rank int) int { return w.ranks[rank].node }

// Dead reports whether a rank has crashed.
func (w *World) Dead(rank int) bool { return w.ranks[rank].dead }

// StatsOf returns a copy of the rank's accounting counters.
func (w *World) StatsOf(rank int) Stats { return w.ranks[rank].stats }

// OnDeath registers fn to be invoked in engine context when a rank dies,
// after undeliverable receives have been failed.
func (w *World) OnDeath(fn func(rank int)) { w.deathSubs = append(w.deathSubs, fn) }

// Launch starts the program for the given rank as a simulated process.
func (w *World) Launch(name string, rank int, fn func(r *Rank)) {
	st := w.ranks[rank]
	if st.proc != nil {
		panic(fmt.Sprintf("mpi: rank %d launched twice", rank))
	}
	if st.start == nil {
		st.start = st.run
	}
	st.main = fn
	st.proc = w.e.Spawn(name, st.start)
	st.proc.SetUserData(st)
}

// LaunchAll starts fn on every rank, naming processes "prefix/rank".
func (w *World) LaunchAll(prefix string, fn func(r *Rank)) {
	for i := range w.ranks {
		w.Launch(prefix+"/"+strconv.Itoa(i), i, fn)
	}
}

// Kill crash-stops a rank. Must be called from engine context (e.g. a
// scheduled fault event) or from another process.
func (w *World) Kill(rank int) {
	st := w.ranks[rank]
	if st.dead || st.proc == nil {
		return
	}
	w.e.Kill(st.proc)
}

// onProcKilled is the engine kill hook: it translates a process crash into
// MPI-level failure semantics.
func (w *World) onProcKilled(p *sim.Proc) {
	st, ok := p.UserData().(*rankState)
	if !ok || st.w != w || st.dead {
		return
	}
	st.dead = true
	// Drop in-flight transmissions that had not left the NIC.
	now := w.e.Now()
	for i, om := range st.outgoing {
		if om.delivered {
			w.putOutMsg(om)
		} else if om.tr.TxDone() > now {
			om.tr.Cancel()
			om.dstCh.inflight--
			w.ranks[om.dst].failDoomedRecvs(om.key, om.dstCh)
			w.putMessage(om.msg)
			w.putOutMsg(om)
		}
		// else: the transfer already left the NIC; it stays owned by its
		// pending delivery event and is dropped on arrival or consumed.
		st.outgoing[i] = nil
	}
	st.outgoing = st.outgoing[:0]
	st.delivered = 0
	// Fail receives (on every surviving rank) that name the dead rank as
	// source and cannot be satisfied by queued or in-flight messages.
	for _, r := range w.ranks {
		if r == st || r.dead {
			continue
		}
		r.failRecvsFrom(st.rank)
	}
	for _, fn := range w.deathSubs {
		fn(st.rank)
	}
}

// failRecvsFrom fails every pending receive naming src that has no queued
// or in-flight message to satisfy it. Candidates are gathered per channel
// and then sorted by request id, so the wake-up order is deterministic even
// though chans is a map.
func (st *rankState) failRecvsFrom(src int) {
	doomed := st.w.sc.doomed[:0]
	for key, ch := range st.chans {
		if key.src != src || len(ch.pending) == 0 {
			continue
		}
		avail := len(ch.unexpected) + ch.inflight
		if avail >= len(ch.pending) {
			continue
		}
		doomed = append(doomed, ch.pending[avail:]...)
	}
	// Deterministic order: sort by request id.
	sortRequests(doomed)
	for _, rq := range doomed {
		rq.ch.removePending(rq)
		rq.complete(nil, &PeerDeadError{Rank: src})
	}
	clear(doomed)
	st.w.sc.doomed = doomed[:0]
}

// failDoomedRecvs re-checks pending receives on ch after in-flight
// accounting changed; used when a transfer from a now-dead source is
// dropped or delivered.
func (st *rankState) failDoomedRecvs(key matchKey, ch *chanState) {
	if !st.w.ranks[key.src].dead {
		return
	}
	avail := len(ch.unexpected) + ch.inflight
	if avail >= len(ch.pending) {
		return
	}
	doomed := append(st.w.sc.doomed[:0], ch.pending[avail:]...)
	for _, rq := range doomed {
		ch.removePending(rq)
		rq.complete(nil, &PeerDeadError{Rank: key.src})
	}
	clear(doomed)
	st.w.sc.doomed = doomed[:0]
	st.retireSingleShot(key, ch)
}
