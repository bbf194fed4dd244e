// Package amg is a surrogate of the AMG2013 proxy application (LLNL ASC):
// a parallel multigrid-preconditioned Krylov solver for Laplace-type
// problems on 3D grids (§V-D, Figures 6a and 6b of the paper).
//
// AMG2013's algebraic hierarchy is replaced by a geometric multigrid
// V-cycle on the structured slab (the evaluation problems *are*
// structured Laplace problems), preserving the computational profile: the
// heavy stencil sweeps of the smoother, residual and matvec are
// intra-parallel sections; grid-transfer operators, vector updates and the
// Krylov orthogonalization remain replicated. Both of the paper's
// configurations are implemented: PCG on a 27-point operator (Fig 6a) and
// GMRES on a 7-point operator (Fig 6b).
package amg

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Solver selects the Krylov method.
type Solver string

// Supported solvers.
const (
	PCG   Solver = "pcg"
	GMRES Solver = "gmres"
)

// Config parameterizes an AMG run.
type Config struct {
	Nx, Ny, Nz  int     // local fine-grid dimensions (each a multiple of 2^(Levels-1))
	Levels      int     // multigrid levels
	Solver      Solver  // pcg (27-point) or gmres (7-point)
	Points      int     // stencil points: 27 or 7
	Iters       int     // Krylov iterations
	Restart     int     // GMRES restart length
	CoarseIters int     // smoothing sweeps on the coarsest level
	Tasks       int     // tasks per intra-parallel section
	SetupFactor float64 // AMG setup cost, in operator-sweep equivalents per level
	//            (coarsening, interpolation and RAP triple products; a large
	//            non-sectionable fraction of real AMG2013 runs)
	Scale       float64          // virtual-cost multiplier (volume)
	PlaneScale  float64          // wire-size multiplier for halo planes
	IntraSweeps apputil.AlwaysOn // stencil sweeps always run as intra-parallel sections
}

// DefaultConfig returns a small PCG test configuration.
func DefaultConfig() Config {
	return Config{
		Nx: 8, Ny: 8, Nz: 8,
		Levels: 2, Solver: PCG, Points: 27,
		Iters: 8, Restart: 5, CoarseIters: 4,
		Tasks: 8, SetupFactor: 2, Scale: 1, PlaneScale: 1,
	}
}

// Result reports one replica's view of the run.
type Result struct {
	Residual float64
	Iters    int
	Kernels  map[string]*apputil.KernelTime
	Total    sim.Time
	Stats    core.Stats
}

const tagHaloBase = 400 // + 2*level (+1 for the downward plane)

// level holds one multigrid level's per-rank state.
type level struct {
	nx, ny, nz int
	x, b, r    *kernels.Slab // solution, right-hand side, residual
	tmp        *kernels.Slab
}

type app struct {
	rt     core.Runner
	cfg    Config
	clock  *apputil.Clock
	levels []*level
	diag   float64 // stencil diagonal
	off    float64 // stencil off-diagonal weight
}

// Run executes the AMG surrogate on the calling logical process, solving
// A x = b with b = A*ones, and returns the final residual norm.
func Run(rt core.Runner, cfg Config) (*Result, error) {
	a, err := newApp(rt, cfg)
	if err != nil {
		return nil, err
	}
	start := rt.Now()
	a.setup()
	var res *Result
	switch cfg.Solver {
	case PCG:
		res, err = a.pcg()
	case GMRES:
		res, err = a.gmres()
	default:
		return nil, fmt.Errorf("amg: unknown solver %q", cfg.Solver)
	}
	if err != nil {
		return nil, err
	}
	res.Total = rt.Now() - start
	res.Kernels = a.clock.Times
	res.Stats = *rt.Stats()
	return res, nil
}

func newApp(rt core.Runner, cfg Config) (*app, error) {
	if cfg.Tasks <= 0 {
		cfg.Tasks = 8
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.PlaneScale <= 0 {
		cfg.PlaneScale = 1
	}
	if cfg.Points != 27 && cfg.Points != 7 {
		return nil, fmt.Errorf("amg: stencil must be 27 or 7 points, got %d", cfg.Points)
	}
	a := &app{rt: rt, cfg: cfg, clock: apputil.NewClock(rt)}
	if cfg.Points == 27 {
		a.diag, a.off = 26, -1
	} else {
		a.diag, a.off = 6, -1
	}
	nx, ny, nz := cfg.Nx, cfg.Ny, cfg.Nz
	for l := 0; l < cfg.Levels; l++ {
		if nx < 2 || ny < 2 || nz < 2 {
			return nil, fmt.Errorf("amg: grid too small for %d levels", cfg.Levels)
		}
		a.levels = append(a.levels, &level{
			nx: nx, ny: ny, nz: nz,
			x:   kernels.NewSlab(nx, ny, nz),
			b:   kernels.NewSlab(nx, ny, nz),
			r:   kernels.NewSlab(nx, ny, nz),
			tmp: kernels.NewSlab(nx, ny, nz),
		})
		nx, ny, nz = nx/2, ny/2, nz/2
	}
	return a, nil
}

// setup charges the AMG setup phase: graph coarsening, interpolation
// construction and the RAP triple product at every level, approximated as
// SetupFactor sparse-matrix sweeps per level. It is replicated work — the
// paper's intra-parallelization was applied to solve-phase kernels only.
func (a *app) setup() {
	if a.cfg.SetupFactor <= 0 {
		return
	}
	a.clock.Track("setup", func() {
		for _, lvl := range a.levels {
			rows := lvl.nx * lvl.ny * lvl.nz
			w := kernels.SpmvWork(rows, rows*a.cfg.Points).Scale(a.cfg.SetupFactor)
			a.rt.Compute(w.Scale(a.cfg.Scale))
		}
	})
}

// exchangeHalo refreshes a slab's z halo planes at the given level.
func (a *app) exchangeHalo(lvl int, s *kernels.Slab) error {
	var err error
	a.clock.Track("halo", func() {
		wire := int64(float64(8*s.Nx*s.Ny) * a.cfg.PlaneScale)
		tag := tagHaloBase + 2*lvl
		err = apputil.ExchangeZHalo(a.rt, tag, tag+1, s.Plane(0), s.Plane(s.Nz-1), s.Plane(-1), s.Plane(s.Nz), wire)
	})
	return err
}

// applyStencil computes out = A(in) over the whole level as an
// intra-parallel section of z-block tasks. Halos of `in` must be current.
func (a *app) applyStencil(lvl *level, in, out *kernels.Slab, name string) error {
	var err error
	a.clock.Track(name, func() {
		nTasks := a.cfg.Tasks
		if nTasks > lvl.nz {
			nTasks = lvl.nz
		}
		a.rt.SectionBegin()
		id := a.rt.TaskRegister(func(c core.Ctx, args []core.Value) {
			z0 := int(*args[1].(core.Scalar).P)
			z1 := int(*args[2].(core.Scalar).P)
			c.Compute(a.rawStencil(in, out, z0, z1).Scale(a.cfg.Scale))
		}, core.Out, core.In, core.In)
		bounds := make([]float64, 2*nTasks)
		plane := lvl.nx * lvl.ny
		for i := 0; i < nTasks; i++ {
			z0, z1 := apputil.TaskBounds(lvl.nz, nTasks, i)
			bounds[2*i], bounds[2*i+1] = float64(z0), float64(z1)
			outRange := out.V[(z0+1)*plane : (z1+1)*plane]
			a.rt.TaskLaunch(id, core.Scaled(core.Float64s(outRange), a.cfg.Scale),
				core.Scalar{P: &bounds[2*i]}, core.Scalar{P: &bounds[2*i+1]})
		}
		err = a.rt.SectionEnd()
	})
	return err
}

// rawStencil applies the level operator over interior planes [z0, z1).
// The math is computed geometrically, but the cost charged is that of a
// CSR sparse matrix-vector sweep with Points nonzeros per row: AMG2013
// stores every operator of its hierarchy as a general ParCSR matrix, so a
// sweep streams matrix values and column indices rather than re-reading a
// cached 4-plane window.
func (a *app) rawStencil(in, out *kernels.Slab, z0, z1 int) perf.Work {
	if a.cfg.Points == 27 {
		kernels.Stencil27Range(in, out, a.diag, a.off, z0, z1)
	} else {
		kernels.Stencil7Range(in, out, a.diag, a.off, z0, z1)
	}
	rows := (z1 - z0) * in.Nx * in.Ny
	return kernels.SpmvWork(rows, rows*a.cfg.Points)
}
