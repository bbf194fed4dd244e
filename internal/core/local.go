package core

import (
	"repro/internal/mpi"
	"repro/internal/replication"
)

// localEngine executes every task of a section on the calling process. It
// backs the two baselines of the evaluation: the native (unreplicated) runs
// and classic state-machine replication, where all replicas redundantly
// execute all computation (Figure 1a).
type localEngine struct {
	name string
}

func (en *localEngine) mode() string { return en.name }

func (en *localEngine) runSection(r *R) error {
	for _, t := range r.tasks {
		r.runTaskLocally(t)
		t.done = true
	}
	return nil
}

// NewNative creates a Runner for an unreplicated rank: logical ranks are
// physical ranks and sections execute entirely locally. This is the
// "Open MPI" configuration of the evaluation.
func NewNative(rank *mpi.Rank) *R { return new(R).native(rank) }

func (r *R) native(rank *mpi.Rank) *R {
	r.local.name = "native"
	r.comm, r.engine = mpiComm{r: rank}, &r.local
	r.machine = rank.Machine()
	return r
}

// NewClassic creates a Runner for one replica under classic state-machine
// replication: communication is replicated, and every replica executes
// every task. This is the "SDR-MPI" configuration of the evaluation.
func NewClassic(p *replication.Proc) *R { return new(R).classic(p) }

func (r *R) classic(p *replication.Proc) *R {
	r.local.name = "classic"
	r.comm, r.engine = replComm{p: p}, &r.local
	r.machine = p.R.Machine()
	return r
}
