package mpi

import "fmt"

// ReduceOp combines src into dst element-wise. dst and src have equal
// length.
type ReduceOp func(dst, src []float64)

// OpSum is the element-wise sum, the one reduction the applications use.
var OpSum ReduceOp = func(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Collective operation codes. Allreduce's two phases use the fixed tags
// -opReduce and -opBcast, in the negative tag space so they can never
// collide with user tags (which must be non-negative), and a rank parked
// inside one reports opAllreduce. Rounds need no tag disambiguation:
// members invoke collectives on a communicator in the same order (as in
// MPI) and matching is FIFO per (source, tag, communicator) channel, so
// successive rounds self-match — and the bounded tag space keeps the
// per-rank matching maps, and their allocations, bounded no matter how
// many collectives run. Code 1 was the retired Barrier's.
const (
	opBcast = iota + 2
	opReduce
	opAllreduce
)

func errNotMember(rank, comm int) string {
	return fmt.Sprintf("mpi: rank %d not a member of communicator %d", rank, comm)
}

// Allreduce combines data across all members and leaves the result in data
// on every member: a binomial-tree reduce to rank 0, then a binomial-tree
// broadcast from it, chained inside one state machine so the caller parks
// at most once.
func (r *Rank) Allreduce(c *Comm, op ReduceOp, data []float64) error {
	sm := r.startColl(c)
	if sm.n == 1 {
		sm.release()
		return nil
	}
	sm.data = data
	sm.rop = op
	return r.runColl(sm)
}

// AllreduceScalar is a convenience wrapper for single-value reductions. The
// rank's scratch cell backs the reduction, so the call allocates nothing.
func (r *Rank) AllreduceScalar(c *Comm, op ReduceOp, v float64) (float64, error) {
	st := r.st
	st.scalar[0] = v
	if err := r.Allreduce(c, op, st.scalar[:]); err != nil {
		return 0, err
	}
	return st.scalar[0], nil
}
