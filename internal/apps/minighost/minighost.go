// Package minighost is a surrogate of the MiniGhost mini-application from
// the Mantevo suite: a bulk-synchronous 27-point stencil code that studies
// boundary-exchange strategies (BSPMA), with a periodic grid summation used
// for error checking.
//
// As the paper found (§V-D, Figure 6d), the stencil itself cannot be
// intra-parallelized profitably (its output is a full new 3D grid), so
// only the grid summation — about 10% of the runtime — runs as
// intra-parallel sections; the stencil remains replicated computation.
package minighost

import (
	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Config parameterizes a MiniGhost run.
type Config struct {
	Nx, Ny, Nz int     // local grid dimensions (z-decomposed globally)
	Steps      int     // time steps
	Vars       int     // number of grid variables
	ReduceVars int     // variables summed (checksummed) each step
	Tasks      int     // tasks per intra-parallel section
	Scale      float64 // virtual-cost multiplier (volume)
	PlaneScale float64 // wire-size multiplier for halo planes
	IntraGsum  bool    // run grid summations as intra-parallel sections
}

// DefaultConfig returns a small test configuration.
func DefaultConfig() Config {
	return Config{
		Nx: 8, Ny: 8, Nz: 8,
		Steps: 4, Vars: 4, ReduceVars: 4,
		Tasks: 8, Scale: 1, PlaneScale: 1,
		IntraGsum: true,
	}
}

// Result reports one replica's view of the run.
type Result struct {
	Checksum float64 // final summed grid values (correctness witness)
	Kernels  map[string]*apputil.KernelTime
	Total    sim.Time
	Stats    core.Stats
}

const (
	tagHaloUp = iota + 200
	tagHaloDown
)

type app struct {
	rt    core.Runner
	cfg   Config
	clock *apputil.Clock
	cur   []*kernels.Slab // current value of each variable
	next  []*kernels.Slab
}

// Run executes MiniGhost on the calling logical process.
func Run(rt core.Runner, cfg Config) (*Result, error) {
	if cfg.Tasks <= 0 {
		cfg.Tasks = 8
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.PlaneScale <= 0 {
		cfg.PlaneScale = 1
	}
	a := &app{rt: rt, cfg: cfg, clock: apputil.NewClock(rt)}
	for v := 0; v < cfg.Vars; v++ {
		s := kernels.NewSlab(cfg.Nx, cfg.Ny, cfg.Nz)
		// Deterministic, rank- and variable-dependent initial condition.
		for i := range s.V {
			s.V[i] = float64((i+v+rt.LogicalRank())%13) / 13.0
		}
		a.cur = append(a.cur, s)
		a.next = append(a.next, kernels.NewSlab(cfg.Nx, cfg.Ny, cfg.Nz))
	}
	start := rt.Now()
	var checksum float64
	for step := 0; step < cfg.Steps; step++ {
		for v := 0; v < cfg.Vars; v++ {
			if err := a.exchangeHalo(a.cur[v]); err != nil {
				return nil, err
			}
			a.stencil(a.cur[v], a.next[v])
			a.cur[v], a.next[v] = a.next[v], a.cur[v]
		}
		for v := 0; v < cfg.ReduceVars && v < cfg.Vars; v++ {
			sum, err := a.gsum(a.cur[v])
			if err != nil {
				return nil, err
			}
			checksum = sum
		}
	}
	return &Result{
		Checksum: checksum,
		Kernels:  a.clock.Times,
		Total:    rt.Now() - start,
		Stats:    *rt.Stats(),
	}, nil
}

// exchangeHalo swaps boundary z-planes with the logical neighbors (the
// BSPMA boundary exchange MiniGhost exists to study).
func (a *app) exchangeHalo(s *kernels.Slab) error {
	var err error
	a.clock.Track("halo", func() {
		wire := int64(float64(8*a.cfg.Nx*a.cfg.Ny) * a.cfg.PlaneScale)
		err = apputil.ExchangeZHalo(a.rt, tagHaloUp, tagHaloDown,
			s.Plane(0), s.Plane(a.cfg.Nz-1), s.Plane(-1), s.Plane(a.cfg.Nz), wire)
	})
	return err
}

// stencil applies the 27-point stencil as replicated computation: its
// output is a full new 3D grid, so shipping updates would cost as much as
// computing them (§V-D).
func (a *app) stencil(in, out *kernels.Slab) {
	a.clock.Track("stencil27", func() {
		// MiniGhost's averaging stencil: new value is the mean of the 27
		// neighborhood points.
		w := kernels.Stencil27Range(in, out, 1.0/27, 1.0/27, 0, a.cfg.Nz)
		a.rt.Compute(w.Scale(a.cfg.Scale))
	})
}

// gsum computes the global sum of the grid: the local summation is the one
// kernel the paper could intra-parallelize in MiniGhost.
func (a *app) gsum(s *kernels.Slab) (float64, error) {
	var local float64
	var err error
	a.clock.Track("gsum", func() {
		interior := s.Interior()
		if !a.cfg.IntraGsum {
			var w = kernels.SumWork(len(interior))
			v, _ := kernels.Sum(interior)
			local = v
			a.rt.Compute(w.Scale(a.cfg.Scale))
			return
		}
		parts := make([]float64, a.cfg.Tasks)
		bounds := make([]float64, 2*a.cfg.Tasks)
		a.rt.SectionBegin()
		id := a.rt.TaskRegister(func(c core.Ctx, args []core.Value) {
			lo := int(*args[1].(core.Scalar).P)
			hi := int(*args[2].(core.Scalar).P)
			v, w := kernels.Sum(interior[lo:hi])
			*args[0].(core.Scalar).P = v
			c.Compute(w.Scale(a.cfg.Scale))
		}, core.Out, core.In, core.In)
		for i := 0; i < a.cfg.Tasks; i++ {
			lo, hi := apputil.TaskBounds(len(interior), a.cfg.Tasks, i)
			bounds[2*i], bounds[2*i+1] = float64(lo), float64(hi)
			a.rt.TaskLaunch(id, core.Scalar{P: &parts[i]},
				core.Scalar{P: &bounds[2*i]}, core.Scalar{P: &bounds[2*i+1]})
		}
		if err = a.rt.SectionEnd(); err != nil {
			return
		}
		for _, v := range parts {
			local += v
		}
	})
	if err != nil {
		return 0, err
	}
	return a.rt.AllreduceScalar(mpi.OpSum, local)
}
