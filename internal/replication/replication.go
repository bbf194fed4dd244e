// Package replication implements state-machine (active) replication of MPI
// processes, the substrate the paper's prototype builds on (SDR-MPI, §V-A).
//
// Each logical MPI rank is executed by Degree physical replicas. Replicas
// are organized in "lanes": lane l of the application is the set of l-th
// replicas of every logical rank. Because the applications are
// deterministic (the paper relies on send-determinism), both lanes produce
// identical message sequences, so a logical message is realized as one
// physical message per lane, between same-lane replicas.
//
// Failure handling: when replica (r, l) crashes, the lowest-lane surviving
// replica of r becomes the *cover* of lane l. It (a) replays its send log
// to lane-l receivers (duplicates are discarded via per-channel sequence
// numbers) and (b) duplicates all subsequent logical sends to lane l. At
// degree 3 and above the dead replica may itself have covered lanes that
// died earlier; the new cover inherits those too and replays toward each.
// Logical receives transparently fail over to the cover. The replica
// communicator of each logical rank (used by intra-parallelization for
// task updates) is exposed via Proc.ReplicaComm.
//
// The one collective, a sum Allreduce, is a message tree over *logical*
// ranks on top of the logical Send/Recv, so it inherits the same fault
// tolerance as point-to-point traffic: a crash in the middle of an
// allreduce is covered by the twin's send-log replay and receive failover.
//
// As in the paper (§III, footnote 1, and §V-A), the exact replica
// consistency protocol is not the contribution; this package provides a
// functionally equivalent one with crash-stop semantics and an oracle
// failure detector.
package replication

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/mpi"
)

// Config configures a replicated system.
type Config struct {
	Logical int  // number of logical MPI ranks
	Degree  int  // replicas per logical rank (the paper uses 2)
	SendLog bool // keep send logs so a cover can replay after a crash
}

// System owns the replica topology and membership.
type System struct {
	w          *mpi.World
	sc         *Scratch
	cfg        Config
	alive      [][]bool    // [logical][lane]
	lanes      [][]int     // [logical]: alive lanes, replaced (never mutated) on a death
	epoch      int         // incremented on every replica death
	procs      [][]*Proc   // [logical][lane], set as each replica starts
	all        []*Proc     // every replica's proc, by physical rank
	replComms  []*mpi.Comm // per logical rank: comm of its replicas
	deadDrops  int64       // sends skipped because the destination replica died
	replayMsgs int64       // messages re-sent from a send log after a crash

	// Backing arrays of the tables above, kept across the trials of a
	// recycled system; laneArena backs the lane lists deaths replace.
	aliveSlab           []bool
	laneSlab, laneArena []int
	procPtrs            []*Proc
	members             []int
}

// Scratch is the replication layer's recycled state, the counterpart of
// mpi.Scratch for a harness that runs many replicated worlds in sequence
// on one goroutine: the last system's tables, its procs (send log, log
// arena and sequence maps cleared, capacity kept) and the header free
// list. Scratch.New takes them and System.Reclaim hands them back.
type Scratch struct {
	sys     *System // the system the next New rebuilds, nil while one runs
	procs   []*Proc // procs the next system takes whole; it uses a prefix
	hdrFree []*hdr
}

// NewScratch returns an empty scratch for Scratch.New.
func NewScratch() *Scratch { return &Scratch{} }

// getHdr draws a replication header from the pool. Receivers return it via
// putHdr the moment accept unwraps the message, so steady-state traffic
// carries headers without boxing one per physical send. Headers on dropped
// or never-received messages simply stay out of the pool; each is its own
// allocation, so a lost header retains nothing but itself.
func (s *System) getHdr(seq uint64, user any) *hdr {
	sc := s.sc
	if n := len(sc.hdrFree); n > 0 {
		h := sc.hdrFree[n-1]
		sc.hdrFree[n-1] = nil
		sc.hdrFree = sc.hdrFree[:n-1]
		h.Seq, h.User = seq, user
		return h
	}
	return &hdr{Seq: seq, User: user}
}

func (s *System) putHdr(h *hdr) {
	h.User = nil
	s.sc.hdrFree = append(s.sc.hdrFree, h)
}

// New builds a replicated system over w. The world must have exactly
// Logical*Degree ranks. Physical placement: replica (r, l) is world rank
// l*Logical + r, which with block node placement puts the two replicas of
// every logical rank on different nodes, as required by the paper's setup
// (§V-B) whenever Logical is a multiple of the node width. The system
// draws from a private scratch.
func New(w *mpi.World, cfg Config) *System { return NewScratch().New(w, cfg) }

// New is the package-level New on sc: the system rebuilds sc's last
// system's tables and procs in place, until Reclaim hands them back. A
// system that is never reclaimed keeps them, and the next New on sc
// allocates afresh. Systems sharing a scratch must run sequentially on one
// goroutine, like the worlds under them.
func (sc *Scratch) New(w *mpi.World, cfg Config) *System {
	if cfg.Degree < 1 {
		panic("replication: degree must be >= 1")
	}
	if w.Size() != cfg.Logical*cfg.Degree {
		panic(fmt.Sprintf("replication: world size %d != logical %d * degree %d",
			w.Size(), cfg.Logical, cfg.Degree))
	}
	s := sc.sys
	if s == nil {
		s = &System{}
	}
	sc.sys = nil
	s.w, s.sc, s.cfg = w, sc, cfg
	s.epoch, s.deadDrops, s.replayMsgs = 0, 0, 0
	n := cfg.Logical * cfg.Degree
	s.all, sc.procs = sc.procs, nil
	if len(s.all) < n {
		slab := make([]Proc, n-len(s.all)) // one allocation for the missing procs
		for i := range slab {
			s.all = append(s.all, &slab[i])
		}
	}
	s.all = s.all[:n:len(s.all)] // Reclaim returns the whole list
	for phys, p := range s.all {
		p.s = s
		p.Logical, p.Lane = s.LogicalOf(phys)
	}
	// The per-logical tables are views of single slabs.
	s.alive = cleared(s.alive, cfg.Logical)
	s.lanes = cleared(s.lanes, cfg.Logical)
	s.procs = cleared(s.procs, cfg.Logical)
	s.replComms = cleared(s.replComms, cfg.Logical)
	s.aliveSlab = cleared(s.aliveSlab, n)
	s.laneSlab = cleared(s.laneSlab, n)
	s.procPtrs = cleared(s.procPtrs, n)
	s.members = cleared(s.members, n)
	s.laneArena = s.laneArena[:0]
	for r := range s.alive {
		lo, hi := r*cfg.Degree, (r+1)*cfg.Degree
		s.alive[r] = s.aliveSlab[lo:hi:hi]
		s.lanes[r] = s.laneSlab[lo:hi:hi]
		s.procs[r] = s.procPtrs[lo:hi:hi]
		members := s.members[lo:hi:hi]
		for l := range s.alive[r] {
			s.alive[r][l] = true
			s.lanes[r][l] = l
			members[l] = s.PhysRank(r, l)
		}
		s.replComms[r] = w.NewComm(members)
	}
	w.OnDeath(s.onDeath)
	return s
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

// Reclaim hands the system's tables, procs and headers back to its
// scratch once the run has drained, each proc reset and every pointer
// into the finished run (world, ranks, communicators, programs, logged
// metadata) dropped. Call it with the world's Reclaim; the system and its
// procs must not be used afterwards.
func (s *System) Reclaim() {
	for _, p := range s.all {
		p.reset()
	}
	clear(s.procPtrs)
	clear(s.replComms)
	sc := s.sc
	sc.procs, sc.sys = s.all[:cap(s.all)], s
	s.w, s.sc, s.all = nil, nil, nil
}

// World returns the underlying MPI world.
func (s *System) World() *mpi.World { return s.w }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Epoch returns the membership epoch (number of deaths observed).
func (s *System) Epoch() int { return s.epoch }

// PhysRank maps (logical, lane) to a world rank.
func (s *System) PhysRank(logical, lane int) int { return lane*s.cfg.Logical + logical }

// LogicalOf maps a world rank back to (logical, lane).
func (s *System) LogicalOf(phys int) (logical, lane int) {
	return phys % s.cfg.Logical, phys / s.cfg.Logical
}

// Alive reports whether replica (logical, lane) is alive.
func (s *System) Alive(logical, lane int) bool { return s.alive[logical][lane] }

// AliveLanes returns the lanes on which logical rank r still has replicas,
// in ascending order. The slice is the system's own and read-only to
// callers. A death replaces it instead of mutating it, so a caller ranging
// over it while a replica dies (a send loop that computes between sends)
// keeps the membership it read.
func (s *System) AliveLanes(r int) []int { return s.lanes[r] }

// Cover returns the lane whose replica of r is responsible for lane l's
// traffic: l itself if alive, otherwise the lowest alive lane. ok is false
// when every replica of r is dead (the logical process is lost and, per the
// paper's model, the application would restart from a checkpoint).
func (s *System) Cover(r, l int) (lane int, ok bool) {
	if s.alive[r][l] {
		return l, true
	}
	for c, a := range s.alive[r] {
		if a {
			return c, true
		}
	}
	return 0, false
}

// KillReplica crash-stops replica (logical, lane). Engine context only.
func (s *System) KillReplica(logical, lane int) {
	s.w.Kill(s.PhysRank(logical, lane))
}

// onDeath is the mpi death hook: update membership and replay the new
// cover's send log toward every lane the dead replica covered. That is its
// own lane and, when it was the lowest alive lane, every lane of r that
// died before it: those pass to the new cover too, which until now sent
// only on its own lane.
func (s *System) onDeath(phys int) {
	r, l := s.LogicalOf(phys)
	if !s.alive[r][l] {
		return
	}
	inherited := s.lanes[r][0] == l
	s.alive[r][l] = false
	// The new list is carved from the arena, never written again: a caller
	// ranging over the old one keeps the membership it read.
	lo := len(s.laneArena)
	for _, a := range s.lanes[r] {
		if a != l {
			s.laneArena = append(s.laneArena, a)
		}
	}
	s.lanes[r] = slices.Clip(s.laneArena[lo:])
	s.epoch++
	if cover, ok := s.Cover(r, l); ok && s.cfg.SendLog {
		if cp := s.procs[r][cover]; cp != nil {
			for d, a := range s.alive[r] {
				if !a && (d == l || inherited) {
					cp.replayTo(d)
				}
			}
		}
	}
}

// ReplicaComm returns the communicator over the replicas of logical rank r
// (comm rank == lane). It is fixed for the lifetime of the system; callers
// consult membership for alive lanes.
func (s *System) ReplicaComm(r int) *mpi.Comm { return s.replComms[r] }

// Launch starts program on every replica of every logical rank.
func (s *System) Launch(prefix string, program func(p *Proc)) {
	for l := 0; l < s.cfg.Degree; l++ {
		for r := 0; r < s.cfg.Logical; r++ {
			phys := s.PhysRank(r, l)
			p := s.all[phys]
			p.program = program
			if p.start == nil {
				p.start = p.run
			}
			s.w.Launch(p.nameFor(prefix), phys, p.start)
		}
	}
}

// nameFor is the replica's process name under prefix, built once per
// recycled proc and (prefix, logical, lane).
func (p *Proc) nameFor(prefix string) string {
	if p.name == "" || p.named != (nameKey{prefix, p.Logical, p.Lane}) {
		p.name = prefix + "/r" + strconv.Itoa(p.Logical) + "." + strconv.Itoa(p.Lane)
		p.named = nameKey{prefix, p.Logical, p.Lane}
	}
	return p.name
}
