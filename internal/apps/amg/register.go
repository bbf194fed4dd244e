package amg

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// PaperPCGConfig is the AMG2013 27-point PCG problem of Figure 6a.
func PaperPCGConfig() Config {
	const div = apputil.SizeDivisor
	k := float64(div)
	return Config{
		Nx: 96 / div, Ny: 96 / div, Nz: 96 / div,
		Levels: 2, Solver: PCG, Points: 27,
		Iters: 6, CoarseIters: 4, Tasks: 8, SetupFactor: 12,
		Scale: k * k * k, PlaneScale: k * k,
	}
}

// PaperGMRESConfig is the AMG2013 7-point GMRES problem of Figure 6b.
func PaperGMRESConfig() Config {
	cfg := PaperPCGConfig()
	cfg.Solver = GMRES
	cfg.Points = 7
	cfg.Iters = 8
	cfg.Restart = 10
	// The 7-point problem has far fewer nonzeros to sweep in the solve
	// phase, so the (fixed-cost) setup weighs relatively more.
	cfg.SetupFactor = 22
	return cfg
}

func init() {
	scenario.RegisterApp(scenario.AppEntry{
		Name:        "amg",
		Description: "AMG2013 multigrid mini-app (PCG/GMRES, Figures 6a-6b)",
		New:         func() any { c := DefaultConfig(); return &c },
		Run: func(cfg any) (scenario.AppRun, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("amg: config is %T, want *amg.Config", cfg)
			}
			cc := *c
			return func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
				res, err := Run(rt, cc)
				if err != nil {
					return 0, nil, core.Stats{}, err
				}
				return res.Total, res.Kernels, res.Stats, nil
			}, nil
		},
		Paper: func(iters, tasks int) any {
			c := PaperPCGConfig()
			if iters > 0 {
				c.Iters = iters
			}
			if tasks > 0 {
				c.Tasks = tasks
			}
			return &c
		},
	})
}
