package mpi

import (
	"errors"
	"fmt"
	"slices"
)

// PeerDeadError reports that a receive cannot complete because the source
// rank crashed.
type PeerDeadError struct {
	Rank int // world rank of the dead peer
}

func (e *PeerDeadError) Error() string { return fmt.Sprintf("mpi: peer rank %d is dead", e.Rank) }

// IsPeerDead reports whether err is (or wraps) a PeerDeadError.
func IsPeerDead(err error) bool {
	if _, ok := err.(*PeerDeadError); ok {
		return true // the common case, and errors.As allocates its target
	}
	var pd *PeerDeadError
	return errors.As(err, &pd)
}

// Comm is a communicator: an ordered group of world ranks with a private
// matching context. Rank arguments to communication calls are positions in
// the communicator ("comm ranks").
type Comm struct {
	id      int
	w       *World
	members []int       // comm rank -> world rank
	pos     map[int]int // world rank -> comm rank, built on first CommRank
}

// newComm returns a communicator of n members for the caller to fill in,
// drawn from the world's share of its scratch's communicators. The
// reverse index is lazy: most communicators — every per-trial world and
// replica comm of a campaign — only ever translate comm ranks to world
// ranks, so they never pay for the map.
func (w *World) newComm(n int) *Comm {
	w.commSeq++
	if w.nComms == len(w.comms) {
		w.comms = append(w.comms, new(Comm))
	}
	c := w.comms[w.nComms]
	w.nComms++
	c.id, c.w = w.commSeq, w
	c.members = slices.Grow(c.members[:0], n)[:n]
	return c
}

// NewComm creates a communicator over the given world ranks. All members
// must make collective calls on it in the same order.
func (w *World) NewComm(members []int) *Comm {
	for i, a := range members {
		for _, b := range members[:i] {
			if a == b {
				panic(fmt.Sprintf("mpi: duplicate member %d in communicator", a))
			}
		}
	}
	c := w.newComm(len(members))
	copy(c.members, members)
	return c
}

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.members[commRank] }

// CommRank translates a world rank to a comm rank, or -1 if not a member.
func (c *Comm) CommRank(worldRank int) int {
	if c.pos == nil {
		c.pos = make(map[int]int, len(c.members))
		for i, wr := range c.members {
			c.pos[wr] = i
		}
	}
	if p, ok := c.pos[worldRank]; ok {
		return p
	}
	return -1
}

// Members returns the comm-rank-ordered world ranks (callers must not
// mutate the result).
func (c *Comm) Members() []int { return c.members }

// RankIn returns the calling rank's position in c, or -1.
func (r *Rank) RankIn(c *Comm) int { return c.CommRank(r.st.rank) }
