package minighost

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// PaperConfig is the MiniGhost problem of Figure 6d (128x128x64, 27-point
// stencil).
func PaperConfig() Config {
	const div = apputil.SizeDivisor
	k := float64(div)
	return Config{
		Nx: 128 / div, Ny: 128 / div, Nz: 64 / div,
		Steps: 6, Vars: 4, ReduceVars: 4, Tasks: 8,
		Scale: k * k * k, PlaneScale: k * k,
	}
}

func init() {
	scenario.RegisterApp(scenario.AppEntry{
		Name:        "minighost",
		Description: "MiniGhost 27-point stencil mini-app (Mantevo; Figure 6d)",
		New:         func() any { c := DefaultConfig(); return &c },
		Run: func(cfg any) (scenario.AppRun, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("minighost: config is %T, want *minighost.Config", cfg)
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
			c := PaperConfig()
			if iters > 0 {
				c.Steps = iters
			}
			if tasks > 0 {
				c.Tasks = tasks
			}
			return &c
		},
	})
}
