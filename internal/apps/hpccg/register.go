package hpccg

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// PaperConfig returns the paper's HPCCG setup (§V-C): per-logical problem
// 128^3 in native runs, doubled (z-extent 256) under replication, executed
// on SizeDivisor-scaled arrays charged at paper-scale cost.
func PaperConfig(replicated bool, iters int, intraWaxpby bool) Config {
	const div = apputil.SizeDivisor
	k := float64(div)
	cfg := Config{
		Nx: 128 / div, Ny: 128 / div, Nz: 128 / div,
		Iters: iters, Tasks: 8,
		Scale: k * k * k, PlaneScale: k * k,
		IntraWaxpby: intraWaxpby,
	}
	if replicated {
		cfg.Nz *= 2 // per-logical problem size doubles (§V-C)
	}
	return cfg
}

func init() {
	scenario.RegisterApp(scenario.AppEntry{
		Name:        "hpccg",
		Description: "HPCCG conjugate-gradient mini-app (Mantevo; weak scaling, Figure 5)",
		New:         func() any { c := DefaultConfig(); return &c },
		Run: func(cfg any) (scenario.AppRun, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("hpccg: config is %T, want *hpccg.Config", cfg)
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
			if iters <= 0 {
				iters = 10
			}
			c := PaperConfig(false, iters, false)
			if tasks > 0 {
				c.Tasks = tasks
			}
			return &c
		},
		WeakScaling: true,
		// The per-rank problem grows with the replication degree, so total
		// logical work stays constant on an equal physical budget.
		GrowPerDegree: func(cfg any, degree int) { cfg.(*Config).Nz *= degree },
		ShrinkPerDegree: func(cfg any, degree int) error {
			c := cfg.(*Config)
			if c.Nz%degree != 0 {
				return fmt.Errorf("hpccg: Nz %d is not a degree-%d multiple: no unreplicated reference problem exists", c.Nz, degree)
			}
			c.Nz /= degree
			return nil
		},
	})
}
