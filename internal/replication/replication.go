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
// Collectives are implemented as message trees over *logical* ranks on top
// of the logical Send/Recv, so they inherit the same fault tolerance as
// point-to-point traffic: a crash in the middle of an allreduce is covered
// by the twin's send-log replay and receive failover.
//
// As in the paper (§III, footnote 1, and §V-A), the exact replica
// consistency protocol is not the contribution; this package provides a
// functionally equivalent one with crash-stop semantics and an oracle
// failure detector.
package replication

import (
	"fmt"
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
	cfg        Config
	alive      [][]bool // [logical][lane]
	lanes      [][]int  // [logical]: alive lanes, replaced (never mutated) on a death
	epoch      int      // incremented on every replica death
	procs      [][]*Proc
	replComms  []*mpi.Comm // per logical rank: comm of its replicas
	deadDrops  int64       // sends skipped because the destination replica died
	replayMsgs int64       // messages re-sent from a send log after a crash
	hdrFree    []*hdr
}

// getHdr draws a replication header from the pool. Receivers return it via
// putHdr the moment accept unwraps the message, so steady-state traffic
// carries headers without boxing one per physical send. Headers on dropped
// or never-received messages simply stay out of the pool.
func (s *System) getHdr(seq uint64, user any) *hdr {
	if n := len(s.hdrFree); n > 0 {
		h := s.hdrFree[n-1]
		s.hdrFree[n-1] = nil
		s.hdrFree = s.hdrFree[:n-1]
		h.Seq, h.User = seq, user
		return h
	}
	return &hdr{Seq: seq, User: user}
}

func (s *System) putHdr(h *hdr) {
	h.User = nil
	s.hdrFree = append(s.hdrFree, h)
}

// New builds a replicated system over w. The world must have exactly
// Logical*Degree ranks. Physical placement: replica (r, l) is world rank
// l*Logical + r, which with block node placement puts the two replicas of
// every logical rank on different nodes, as required by the paper's setup
// (§V-B) whenever Logical is a multiple of the node width.
func New(w *mpi.World, cfg Config) *System {
	if cfg.Degree < 1 {
		panic("replication: degree must be >= 1")
	}
	if w.Size() != cfg.Logical*cfg.Degree {
		panic(fmt.Sprintf("replication: world size %d != logical %d * degree %d",
			w.Size(), cfg.Logical, cfg.Degree))
	}
	s := &System{w: w, cfg: cfg}
	// Backing arrays for the per-logical tables are single slabs; campaigns
	// build one System per trial, so construction cost is on the hot path.
	s.alive = make([][]bool, cfg.Logical)
	s.lanes = make([][]int, cfg.Logical)
	s.procs = make([][]*Proc, cfg.Logical)
	aliveSlab := make([]bool, cfg.Logical*cfg.Degree)
	laneSlab := make([]int, cfg.Logical*cfg.Degree)
	procSlab := make([]*Proc, cfg.Logical*cfg.Degree)
	for r := range s.alive {
		s.alive[r] = aliveSlab[r*cfg.Degree : (r+1)*cfg.Degree : (r+1)*cfg.Degree]
		s.lanes[r] = laneSlab[r*cfg.Degree : (r+1)*cfg.Degree : (r+1)*cfg.Degree]
		s.procs[r] = procSlab[r*cfg.Degree : (r+1)*cfg.Degree : (r+1)*cfg.Degree]
		for l := range s.alive[r] {
			s.alive[r][l] = true
			s.lanes[r][l] = l
		}
	}
	s.replComms = make([]*mpi.Comm, cfg.Logical)
	memberSlab := make([]int, cfg.Logical*cfg.Degree)
	for r := 0; r < cfg.Logical; r++ {
		members := memberSlab[r*cfg.Degree : (r+1)*cfg.Degree : (r+1)*cfg.Degree]
		for l := 0; l < cfg.Degree; l++ {
			members[l] = s.PhysRank(r, l)
		}
		s.replComms[r] = w.NewComm(members)
	}
	w.OnDeath(s.onDeath)
	return s
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
	lanes := make([]int, 0, len(s.lanes[r])-1)
	for _, a := range s.lanes[r] {
		if a != l {
			lanes = append(lanes, a)
		}
	}
	s.lanes[r] = lanes
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
			r, l := r, l
			phys := s.PhysRank(r, l)
			name := prefix + "/r" + strconv.Itoa(r) + "." + strconv.Itoa(l)
			s.w.Launch(name, phys, func(rank *mpi.Rank) {
				p := newProc(s, rank, r, l)
				s.procs[r][l] = p
				program(p)
			})
		}
	}
}
