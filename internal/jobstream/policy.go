package jobstream

import (
	"repro/internal/ckpt"
	"repro/internal/ckptsim"
	"repro/internal/scenario"
)

// Request is what a fault-tolerance policy sees when a job arrives: the
// job's shape, the failure environment, and the cluster's spare capacity
// at that instant.
type Request struct {
	Logical    int     // requested rank count (native footprint)
	NativeWall float64 // fault-free native makespan, seconds
	NodeMTBF   float64 // per-node MTBF, seconds (0 = no failures)
	DeltaFrac  float64 // checkpoint cost as a fraction of NativeWall
	Nodes      int     // cluster size
	Free       int     // free nodes right now
}

// Decision is the fault-tolerance configuration a policy chose for one
// job. The simulator derives the footprint: Logical nodes for native and
// ccr, Logical x Degree for replicated modes.
type Decision struct {
	Mode   scenario.Mode
	Degree int            // replicated modes only
	Params ckptsim.Params // ccr only
}

// Policy assigns a fault-tolerance configuration to each arriving job.
// Policies may consult spare capacity, so two schedulers replaying the
// identical arrival stream can still drive an adaptive policy to
// different choices — that interaction is the point of the experiment.
type Policy interface {
	Name() string
	Decide(r Request) Decision
}

// ccrParams derives the checkpoint/restart parameters for one job: cost
// delta = DeltaFrac x the fault-free wall, restart = delta, and Daly's
// optimal interval at the job's system MTBF (per-node MTBF / ranks),
// clamped to the job length — an interval past the end means a single
// segment and zero checkpoints, which is also the failure-free limit.
func ccrParams(r Request) ckptsim.Params {
	delta := r.DeltaFrac * r.NativeWall
	tau := r.NativeWall
	if r.NodeMTBF > 0 {
		if t := ckpt.OptimalInterval(delta, delta, r.NodeMTBF/float64(r.Logical)); t < tau {
			tau = t
		}
	}
	return ckptsim.Params{Tau: tau, Delta: delta, Restart: delta}
}

func native(r Request) Decision {
	return Decision{Mode: scenario.Native}
}

// nativePolicy runs every job unprotected.
type nativePolicy struct{}

func (nativePolicy) Name() string              { return "native" }
func (nativePolicy) Decide(r Request) Decision { return native(r) }

// replicatePolicy runs every job under degree-2 process replication
// (classic mode, 2x the footprint), falling back to native when the
// cluster is too small to ever host the doubled job.
type replicatePolicy struct{}

func (replicatePolicy) Name() string { return "replicate" }

func (replicatePolicy) Decide(r Request) Decision {
	if 2*r.Logical > r.Nodes {
		return native(r)
	}
	return Decision{Mode: scenario.Classic, Degree: 2}
}

// ccrPolicy runs every job under coordinated checkpoint/restart at its
// native footprint.
type ccrPolicy struct{}

func (ccrPolicy) Name() string { return "ccr" }

func (ccrPolicy) Decide(r Request) Decision {
	return Decision{Mode: scenario.CCR, Params: ccrParams(r)}
}

// adaptiveEffFloor is the cCR efficiency below which the adaptive policy
// prefers replication: degree-2 replication delivers ~1/2 resource
// efficiency (double the nodes, survives node losses), so once Daly's
// best efficiency drops under 1/2 the doubled footprint is the better
// spend — the paper's SS-II crossover recast as an online rule.
const adaptiveEffFloor = 0.5

// adaptivePolicy chooses per job from the current MTBF and spare
// capacity: no failures -> native; checkpointing still efficient or no
// spare room for replicas -> ccr; otherwise degree-2 replication.
type adaptivePolicy struct{}

func (adaptivePolicy) Name() string { return "adaptive" }

func (adaptivePolicy) Decide(r Request) Decision {
	if r.NodeMTBF == 0 {
		return native(r)
	}
	delta := r.DeltaFrac * r.NativeWall
	eff := ckpt.BestEfficiency(delta, delta, r.NodeMTBF/float64(r.Logical))
	if eff < adaptiveEffFloor && 2*r.Logical <= r.Free {
		return Decision{Mode: scenario.Classic, Degree: 2}
	}
	return Decision{Mode: scenario.CCR, Params: ccrParams(r)}
}

// policies are the fault-tolerance policy names workloads may use.
var policies = map[string]entry[Policy]{
	"native": {"no fault tolerance: a node failure kills the job",
		func() Policy { return nativePolicy{} }},
	"replicate": {"degree-2 process replication (2x footprint; native when the cluster cannot fit it)",
		func() Policy { return replicatePolicy{} }},
	"ccr": {"coordinated checkpoint/restart at Daly's optimal interval, native footprint",
		func() Policy { return ccrPolicy{} }},
	"adaptive": {"per-job rule: native when failure-free, replicate when cCR efficiency < 1/2 and spare nodes allow, else ccr",
		func() Policy { return adaptivePolicy{} }},
}

// newPolicy instantiates a named policy.
func newPolicy(name string) (Policy, error) {
	return instantiate(policies, "policy", name)
}

// PolicyList enumerates the policies, sorted by name.
func PolicyList() []RegistryEntry { return list(policies) }

// CheckNames resolves the workload's scheduler and policy names against
// the tables: the jobstream half of workload validation (the scenario
// layer cannot see these tables without an import cycle).
func CheckNames(w *scenario.Workload) error {
	for _, n := range w.Schedulers {
		if _, err := newScheduler(n); err != nil {
			return err
		}
	}
	for _, n := range w.Policies {
		if _, err := newPolicy(n); err != nil {
			return err
		}
	}
	return nil
}
