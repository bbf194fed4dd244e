// Package experiments reconstructs the paper's evaluation: it builds
// simulated clusters, runs the benchmark applications under the three
// configurations of the paper (native Open MPI, classic active replication
// à la SDR-MPI, and intra-parallelization), and regenerates every figure
// of §V as a table. All experiment points are described by the canonical
// scenario.Scenario type; this package is the runtime that turns scenarios
// into simulations.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Mode is the canonical fault-tolerance mode (scenario.Mode), re-exported
// so experiment code reads naturally.
type Mode = scenario.Mode

// Modes of the evaluation.
const (
	Native  = scenario.Native  // unreplicated Open MPI baseline
	Classic = scenario.Classic // SDR-MPI: classic state-machine replication
	Intra   = scenario.Intra   // replication with intra-parallelization
	CCR     = scenario.CCR     // coordinated checkpoint/restart (native run + ckptsim replay)
)

// ClusterConfig describes one experiment's platform and mode.
type ClusterConfig struct {
	Logical   int // logical MPI ranks
	Mode      Mode
	Degree    int // replication degree (paper: 2)
	Net       simnet.Config
	Machine   perf.Machine
	SendLog   bool         // enable crash coverage logs (off for perf runs)
	IntraOpts core.Options // options for the intra engine

	// Engine, when non-nil, is the simulation engine to build the cluster
	// on instead of a fresh one — the hook the pooled sweep runner uses to
	// reuse one engine (event free lists, process goroutines) across many
	// spec runs. The caller owns its lifecycle: it must be freshly created
	// or Reset, and Reset again before any reuse.
	Engine *sim.Engine

	// Scratch, when non-nil, is the recycled trial state the cluster's
	// world, replication system and runners draw from (core.Scratch): the
	// pooled runner's counterpart to Engine for the layers above it.
	// Clusters sharing a scratch must run sequentially on one goroutine,
	// and each hands its state back with Reclaim before the next is built.
	Scratch *core.Scratch
}

// DefaultPlatform returns the Grid'5000-like platform of §V-B.
func DefaultPlatform() (simnet.Config, perf.Machine) {
	return simnet.InfiniBand20G, perf.Grid5000
}

// Cluster is a ready-to-run simulated machine.
type Cluster struct {
	Cfg ClusterConfig
	E   *sim.Engine
	W   *mpi.World
	Sys *replication.System // nil in native mode
}

// NewCluster builds the simulated platform for cfg. The zero values of Net
// and Machine select the paper's platform independently (a config may
// override just one of them); a partially-specified custom model is an
// error, never silently swapped for the default.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if !cfg.Mode.Known() {
		return nil, fmt.Errorf("experiments: unknown mode %d", int(cfg.Mode))
	}
	if cfg.Logical < 1 {
		return nil, fmt.Errorf("experiments: cluster needs at least 1 logical rank, got %d", cfg.Logical)
	}
	if cfg.Degree == 0 {
		cfg.Degree = scenario.DefaultDegree
	}
	defNet, defMachine := DefaultPlatform()
	if cfg.Net == (simnet.Config{}) {
		cfg.Net = defNet
	} else if err := scenario.CheckNet(cfg.Net); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if cfg.Machine == (perf.Machine{}) {
		cfg.Machine = defMachine
	} else if err := scenario.CheckMachine(cfg.Machine); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	phys := cfg.Logical
	if cfg.Mode.Replicated() {
		phys *= cfg.Degree
	}
	e := cfg.Engine
	if e == nil {
		e = sim.New()
	}
	if cfg.Scratch == nil {
		cfg.Scratch = core.NewScratch()
	}
	nodes := (phys + cfg.Net.CoresPerNode - 1) / cfg.Net.CoresPerNode
	net := simnet.New(e, cfg.Net, nodes)
	w := cfg.Scratch.MPI.NewWorld(e, net, phys, cfg.Machine, nil)
	c := &Cluster{Cfg: cfg, E: e, W: w}
	if cfg.Mode.Replicated() {
		c.Sys = cfg.Scratch.Repl.New(w, replication.Config{
			Logical: cfg.Logical,
			Degree:  cfg.Degree,
			SendLog: cfg.SendLog,
		})
	}
	return c, nil
}

// PhysProcs returns the number of physical processes the cluster uses (the
// "ps" annotation in Figure 6).
func (c *Cluster) PhysProcs() int { return c.W.Size() }

// Launch starts program on every logical process (on every replica in
// replicated modes). The runner passed to program matches the cluster
// mode.
func (c *Cluster) Launch(program func(rt core.Runner)) {
	switch c.Cfg.Mode {
	case Native, CCR:
		// ccr runs the application unreplicated: checkpoints, rollbacks and
		// restarts are layered over the measured makespan by the campaign's
		// ckptsim replay, never simulated inside the cluster.
		c.W.LaunchAll("native", func(r *mpi.Rank) {
			program(c.Cfg.Scratch.Native(r))
		})
	case Classic:
		c.Sys.Launch("classic", func(p *replication.Proc) {
			program(c.Cfg.Scratch.Classic(p))
		})
	case Intra:
		c.Sys.Launch("intra", func(p *replication.Proc) {
			program(c.Cfg.Scratch.Intra(p, c.Cfg.IntraOpts))
		})
	}
}

// Reclaim hands the cluster's runners, replication system and world back
// to its scratch, reset, once Run has returned without error. The cluster
// must not be used afterwards.
func (c *Cluster) Reclaim() {
	c.Cfg.Scratch.Reclaim()
	if c.Sys != nil {
		c.Sys.Reclaim()
	}
	c.W.Reclaim()
}

// Run drives the simulation to completion and returns the wall-clock time
// of the run (the virtual time at which the last process finished).
func (c *Cluster) Run() (sim.Time, error) {
	if err := c.E.Run(); err != nil {
		return 0, fmt.Errorf("experiments: %s run failed: %w", c.Cfg.Mode, err)
	}
	return c.E.Now(), nil
}

// RunProgram is the one-call convenience used by tests and benches: build,
// launch, run.
func RunProgram(cfg ClusterConfig, program func(rt core.Runner)) (sim.Time, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	c.Launch(program)
	return c.Run()
}
