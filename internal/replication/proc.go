package replication

import (
	"fmt"

	"repro/internal/mpi"
)

// Proc is the per-replica handle for one replica of a logical MPI process.
// Application code written against Proc sees a logical rank space of size
// Config.Logical; the replication machinery is transparent.
//
// A Proc belongs to its System's scratch and outlives the run: Reclaim
// resets it for the system's next run, keeping the capacity of its send
// log, log arena, sequence maps and request buffer.
type Proc struct {
	s       *System
	R       *mpi.Rank // underlying physical rank (exposed for lower layers)
	Logical int
	Lane    int

	// The sequence maps only ever hold application-tag channels
	// (collective tags skip sequence bookkeeping entirely), so each is made
	// on first use; a replica that exchanges nothing but collectives never
	// materializes them. Reclaim clears them and keeps them.
	expected  map[chanKey]uint64                  // next seq per (logical src, tag)
	stash     map[chanKey]map[uint64]*mpi.Message // early messages
	sendSeq   map[chanKey]uint64                  // next seq per (logical dst, tag)
	log       []logEntry                          // send log for crash coverage
	logArena  []float64                           // payload storage backing log entries
	collRound int                                 // collective round counter
	reqbuf    []*mpi.Request                      // scratch for blocking sends

	// The launched program and the process body that runs it, bound once
	// per proc, and the process name, built once per nameKey.
	program func(p *Proc)
	start   func(r *mpi.Rank)
	name    string
	named   nameKey
}

// nameKey is what a replica's process name is built from.
type nameKey struct {
	prefix        string
	logical, lane int
}

// run is the replica's body: it binds the physical rank and runs the
// launched program.
func (p *Proc) run(r *mpi.Rank) {
	p.R = r
	p.s.procs[p.Logical][p.Lane] = p
	p.program(p)
}

// reset readies the proc for its system's next run and drops every
// pointer into the finished one: the system, the rank, the program, and
// the logged metadata and stashed messages.
func (p *Proc) reset() {
	p.s, p.R, p.program = nil, nil, nil
	clear(p.expected)
	clear(p.stash)
	clear(p.sendSeq)
	clear(p.log)
	p.log = p.log[:0]
	p.logArena = p.logArena[:0]
	p.collRound = 0
	clear(p.reqbuf[:cap(p.reqbuf)])
	p.reqbuf = p.reqbuf[:0]
}

// chanKey identifies a logical message channel.
type chanKey struct {
	peer int // logical peer rank
	tag  int
}

type logEntry struct {
	dst    int // logical destination
	tag    int
	seq    uint64
	off, n int // payload location in the proc's log arena
	meta   any
	bytes  int64 // modeled payload size
}

// hdr is the replication header carried in mpi message metadata.
type hdr struct {
	Seq  uint64
	User any
}

// System returns the replication system.
func (p *Proc) System() *System { return p.s }

// LogicalSize returns the number of logical ranks.
func (p *Proc) LogicalSize() int { return p.s.cfg.Logical }

// AliveLanes returns the lanes on which this logical rank has live
// replicas (read-only; see System.AliveLanes).
func (p *Proc) AliveLanes() []int { return p.s.AliveLanes(p.Logical) }

// ReplicaComm returns the communicator over this logical rank's replicas
// (comm rank == lane).
func (p *Proc) ReplicaComm() *mpi.Comm { return p.s.ReplicaComm(p.Logical) }

// Send performs a logical send: one physical message per lane this replica
// covers, to the corresponding replica of dst. data is copied.
func (p *Proc) Send(dst, tag int, data []float64, meta any) error {
	return p.SendSized(dst, tag, data, meta, 8*int64(len(data)))
}

// SendSized is Send with an explicit modeled payload size (for scaled
// experiment runs). The per-lane request slice is a scratch buffer reused
// across calls, and the requests themselves never escape, so the blocking
// wait drains it and recycles every handle to the world pool.
func (p *Proc) SendSized(dst, tag int, data []float64, meta any, payloadBytes int64) error {
	p.reqbuf = p.isendInto(p.reqbuf[:0], dst, tag, data, meta, payloadBytes)
	return p.R.WaitallOwned(p.reqbuf)
}

func (p *Proc) isendInto(reqs []*mpi.Request, dst, tag int, data []float64, meta any, payloadBytes int64) []*mpi.Request {
	// Collective tags (negative, minted fresh per round by Allreduce) are
	// single-shot: each (src, dst, tag) pair carries at most one message,
	// so their sequence number is constantly 1 and per-channel counters
	// would only accumulate dead entries. Only application tags, which can
	// be reused, pay for sequence bookkeeping.
	seq := uint64(1)
	if tag >= 0 {
		if p.sendSeq == nil {
			p.sendSeq = make(map[chanKey]uint64)
		}
		key := chanKey{peer: dst, tag: tag}
		p.sendSeq[key]++
		seq = p.sendSeq[key]
	}
	if p.s.cfg.SendLog {
		// Payloads land in one per-proc arena rather than a fresh buffer per
		// send; entries address it by offset because append may move it.
		off := len(p.logArena)
		p.logArena = append(p.logArena, data...)
		p.log = append(p.log, logEntry{dst: dst, tag: tag, seq: seq, off: off, n: len(data), meta: meta, bytes: payloadBytes})
	}
	for l := 0; l < p.s.cfg.Degree; l++ {
		cover, ok := p.s.Cover(p.Logical, l)
		if !ok || cover != p.Lane {
			continue // some other replica covers lane l (or the rank is lost)
		}
		if !p.s.alive[dst][l] {
			p.s.deadDrops++
			continue // the lane-l replica of dst is dead; its cover has its own feed
		}
		reqs = append(reqs, p.R.IsendSized(p.s.w.World(), p.s.PhysRank(dst, l), tag, data, p.s.getHdr(seq, meta), payloadBytes))
	}
	return reqs
}

// replayTo re-sends this replica's send log toward lane l (after the lane-l
// replica of this logical rank died). Runs in engine context; duplicates
// are discarded by receivers via sequence numbers.
func (p *Proc) replayTo(l int) {
	for _, ent := range p.log {
		if !p.s.alive[ent.dst][l] {
			continue
		}
		p.s.replayMsgs++
		p.s.w.AsyncSend(p.s.PhysRank(p.Logical, p.Lane), p.s.w.World(), p.s.PhysRank(ent.dst, l),
			ent.tag, p.logArena[ent.off:ent.off+ent.n], p.s.getHdr(ent.seq, ent.meta), ent.bytes)
	}
}

// Recv performs a logical receive from logical rank src with the given
// tag. It transparently fails over to the covering replica when the
// expected sender has crashed, and discards duplicates introduced by
// coverage replay.
func (p *Proc) Recv(src, tag int) (*mpi.Message, error) {
	key := chanKey{peer: src, tag: tag}
	want := uint64(1)
	if tag >= 0 {
		want = p.expected[key] + 1
	}
	for {
		// Serve from the stash first (early arrivals from a previous
		// failover). Single-shot collective tags can never stash: their
		// only sequence number is 1, which is never ahead of want.
		if tag >= 0 {
			if st := p.stash[key]; st != nil {
				if msg, ok := st[want]; ok {
					delete(st, want)
					p.expected[key] = want
					return msg, nil
				}
			}
		}
		// Drain any message already queued from any replica of src; a
		// message from a now-dead replica may have been delivered before
		// the crash. Until the first membership change (epoch 0) each lane
		// has exactly one feed — its own — and anything queued there is
		// consumed without parking by the blocking receive below, so the
		// drain only runs once a crash may have re-routed or replayed
		// traffic.
		if p.s.epoch > 0 {
			drained := false
			for l := 0; l < p.s.cfg.Degree; l++ {
				if msg, ok := p.R.TryRecv(p.s.w.World(), p.s.PhysRank(src, l), tag); ok {
					if p.accept(key, want, msg) {
						return msg, nil
					}
					drained = true
					break
				}
			}
			if drained {
				continue
			}
		}
		cover, ok := p.s.Cover(src, p.Lane)
		if !ok {
			return nil, &LogicalRankLostError{Rank: src}
		}
		msg, err := p.R.Recv(p.s.w.World(), p.s.PhysRank(src, cover), tag)
		if err != nil {
			if mpi.IsPeerDead(err) {
				continue // failover: membership changed, retry with new cover
			}
			return nil, err
		}
		if p.accept(key, want, msg) {
			return msg, nil
		}
	}
}

// accept applies sequence bookkeeping to an arrived message. It returns
// true when msg is the next expected message; duplicates are dropped and
// early messages stashed.
func (p *Proc) accept(key chanKey, want uint64, msg *mpi.Message) bool {
	h, ok := msg.Meta.(*hdr)
	if !ok {
		panic("replication: message without replication header")
	}
	msg.Meta = h.User
	seq := h.Seq
	p.s.putHdr(h)
	switch {
	case seq == want:
		if key.tag >= 0 {
			if p.expected == nil {
				p.expected = make(map[chanKey]uint64)
			}
			p.expected[key] = want
		}
		return true
	case seq < want:
		// Duplicate from coverage replay: nobody will ever see it again, so
		// its buffer can rejoin the message pool whatever path it came from.
		p.s.w.RecycleMessage(msg)
		return false
	default:
		if p.stash == nil {
			p.stash = make(map[chanKey]map[uint64]*mpi.Message)
		}
		if p.stash[key] == nil {
			p.stash[key] = make(map[uint64]*mpi.Message)
		}
		p.stash[key][seq] = msg
		return false
	}
}

// LogicalRankLostError reports that every replica of a logical rank has
// crashed; the computation cannot continue without checkpoint restart.
type LogicalRankLostError struct {
	Rank int
}

func (e *LogicalRankLostError) Error() string {
	return fmt.Sprintf("replication: all replicas of logical rank %d are dead", e.Rank)
}

// The logical collective, a sum Allreduce, is a message tree over logical
// ranks built on the replication layer's own Send/Recv, so it inherits its
// fault tolerance: every collective message is mirrored per lane,
// deduplicated by sequence number, and covered by the twin's send-log
// replay if a replica crashes mid-collective. Its tags live in the
// negative space so they can never collide with application tags: the
// opcode in the high bits (opAllreduce; 1 was the retired Barrier's, 2 and
// 3 are free) and the round counter in the low 24.
const opAllreduce = 4

// bcastTag broadcasts data from logical rank 0 to every logical rank
// (binomial tree) under tag.
func (p *Proc) bcastTag(tag int, data []float64) error {
	n := p.s.cfg.Logical
	if n == 1 {
		return nil
	}
	me := p.Logical
	if me != 0 {
		mask := 1
		for me&mask == 0 {
			mask <<= 1
		}
		msg, err := p.Recv(me-mask, tag)
		if err != nil {
			return err
		}
		copy(data, msg.Data)
		p.s.w.RecycleMessage(msg)
	}
	mask := 1
	for me&mask == 0 && mask < n {
		mask <<= 1
	}
	for m := mask >> 1; m >= 1; m >>= 1 {
		if child := me + m; child < n {
			if err := p.Send(child, tag, data, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// reduceTag sums every logical rank's data into logical rank 0's buffer
// (binomial tree) under tag. data is the local accumulator on every rank.
func (p *Proc) reduceTag(tag int, data []float64) error {
	n := p.s.cfg.Logical
	if n == 1 {
		return nil
	}
	me := p.Logical
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			return p.Send(me-mask, tag, data, nil)
		}
		if child := me + mask; child < n {
			msg, err := p.Recv(child, tag)
			if err != nil {
				return err
			}
			for i, v := range msg.Data {
				data[i] += v
			}
			p.s.w.RecycleMessage(msg)
		}
	}
	return nil
}

// Allreduce sums data element-wise across all logical ranks and leaves
// the result in data everywhere (reduce to 0, then broadcast).
func (p *Proc) Allreduce(data []float64) error {
	p.collRound++
	base := -(opAllreduce<<24 | p.collRound&0xffffff)
	if err := p.reduceTag(base, data); err != nil {
		return err
	}
	// The paired broadcast reuses the same round with a distinct opcode
	// encoding so the two phases cannot cross-match.
	return p.bcastTag(base-1<<30, data)
}
