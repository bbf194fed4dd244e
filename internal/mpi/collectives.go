package mpi

import "fmt"

// ReduceOp combines src into dst element-wise. dst and src have equal
// length.
type ReduceOp func(dst, src []float64)

// Predefined reduction operators.
var (
	OpSum ReduceOp = func(dst, src []float64) {
		for i, v := range src {
			dst[i] += v
		}
	}
	OpMax ReduceOp = func(dst, src []float64) {
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
	OpMin ReduceOp = func(dst, src []float64) {
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	}
)

// Collective operation codes. Each operation uses the fixed tag -op, in the
// negative tag space so it can never collide with user tags (which must be
// non-negative). Rounds need no tag disambiguation: members invoke
// collectives on a communicator in the same order (as in MPI) and matching
// is FIFO per (source, tag, communicator) channel, so successive rounds
// self-match — and the bounded tag space keeps the per-rank matching maps,
// and their allocations, bounded no matter how many collectives run.
const (
	opBarrier = iota + 1
	opBcast
	opReduce
	opAllreduce
)

func errNotMember(rank, comm int) string {
	return fmt.Sprintf("mpi: rank %d not a member of communicator %d", rank, comm)
}

// Barrier blocks until all members have entered it (dissemination
// algorithm, O(log n) rounds).
func (r *Rank) Barrier(c *Comm) error {
	sm := r.startColl(c, opBarrier)
	if sm.n == 1 {
		sm.release()
		return nil
	}
	sm.dist = 1
	return r.runColl(sm)
}

// Bcast broadcasts data from root to all members using a binomial tree.
// Non-root callers pass a buffer of the correct length that is filled in.
func (r *Rank) Bcast(c *Comm, root int, data []float64) error {
	sm := r.startColl(c, opBcast)
	if sm.n == 1 {
		sm.release()
		return nil
	}
	sm.root = root
	sm.vrank = (sm.me - root + sm.n) % sm.n
	sm.data = data
	return r.runColl(sm)
}

// Reduce combines each member's data into root's data using op (binomial
// tree). data is modified in place on all ranks (it is used as the local
// accumulation buffer); only root's final value is meaningful.
func (r *Rank) Reduce(c *Comm, root int, op ReduceOp, data []float64) error {
	sm := r.startColl(c, opReduce)
	if sm.n == 1 {
		sm.release()
		return nil
	}
	sm.root = root
	sm.vrank = (sm.me - root + sm.n) % sm.n
	sm.data = data
	sm.rop = op
	sm.mask = 1
	return r.runColl(sm)
}

// Allreduce combines data across all members and leaves the result in data
// on every member (reduce-to-0 then broadcast, chained inside one state
// machine so the caller parks at most once).
func (r *Rank) Allreduce(c *Comm, op ReduceOp, data []float64) error {
	sm := r.startColl(c, opAllreduce)
	if sm.n == 1 {
		sm.release()
		return nil
	}
	sm.sub = opReduce
	sm.tag = -opReduce
	sm.root = 0
	sm.vrank = sm.me
	sm.data = data
	sm.rop = op
	sm.mask = 1
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
