package amg_test

import (
	"math"
	"testing"

	"repro/internal/apps/amg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func runMode(t *testing.T, mode experiments.Mode, logical int, cfg amg.Config) (map[int]*amg.Result, sim.Time) {
	t.Helper()
	results := map[int]*amg.Result{}
	end, err := experiments.RunProgram(experiments.ClusterConfig{
		Logical: logical,
		Mode:    mode,
	}, func(rt core.Runner) {
		res, err := amg.Run(rt, cfg)
		if err != nil {
			t.Errorf("%v rank %d: %v", mode, rt.LogicalRank(), err)
			return
		}
		if prev, ok := results[rt.LogicalRank()]; ok && prev.Residual != res.Residual {
			t.Errorf("replica divergence: %v vs %v", prev.Residual, res.Residual)
		}
		results[rt.LogicalRank()] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, end
}

func initialResidual(t *testing.T, cfg amg.Config, logical int) float64 {
	t.Helper()
	zeroIter := cfg
	zeroIter.Iters = 0
	if cfg.Solver == amg.GMRES {
		zeroIter.Iters = 0
	}
	res, _ := runMode(t, experiments.Native, logical, zeroIter)
	return res[0].Residual
}

func TestPCGReducesResidual(t *testing.T) {
	cfg := amg.DefaultConfig()
	cfg.Iters = 10
	r0 := initialResidual(t, cfg, 2)
	res, _ := runMode(t, experiments.Native, 2, cfg)
	if res[0].Residual >= r0/100 {
		t.Fatalf("PCG stalled: r0=%v r=%v", r0, res[0].Residual)
	}
}

func TestGMRESReducesResidual(t *testing.T) {
	cfg := amg.DefaultConfig()
	cfg.Solver = amg.GMRES
	cfg.Points = 7
	cfg.Iters = 10
	r0 := initialResidual(t, cfg, 2)
	res, _ := runMode(t, experiments.Native, 2, cfg)
	if res[0].Residual >= r0/100 {
		t.Fatalf("GMRES stalled: r0=%v r=%v", r0, res[0].Residual)
	}
}

func TestMultilevelBeatsAndMatchesDecomposition(t *testing.T) {
	// Same global problem split across 1 vs 2 ranks must give the same
	// residual.
	residual := func(ranks int) float64 {
		cfg := amg.DefaultConfig()
		cfg.Nx, cfg.Ny = 8, 8
		cfg.Nz = 8 / ranks
		cfg.Iters = 6
		res, _ := runMode(t, experiments.Native, ranks, cfg)
		return res[0].Residual
	}
	r1, r2 := residual(1), residual(2)
	if math.Abs(r1-r2) > 1e-9*math.Abs(r1)+1e-15 {
		t.Fatalf("decomposition changed the math: %v vs %v", r1, r2)
	}
}

func TestAllModesAgree(t *testing.T) {
	for _, solver := range []amg.Solver{amg.PCG, amg.GMRES} {
		solver := solver
		t.Run(string(solver), func(t *testing.T) {
			cfg := amg.DefaultConfig()
			cfg.Solver = solver
			if solver == amg.GMRES {
				cfg.Points = 7
			}
			cfg.Iters = 5
			var base float64
			for _, mode := range []experiments.Mode{experiments.Native, experiments.Classic, experiments.Intra} {
				res, _ := runMode(t, mode, 2, cfg)
				if mode == experiments.Native {
					base = res[0].Residual
					continue
				}
				if res[0].Residual != base {
					t.Fatalf("%v residual %v != native %v", mode, res[0].Residual, base)
				}
			}
		})
	}
}

func TestBadConfigs(t *testing.T) {
	_, err := experiments.RunProgram(experiments.ClusterConfig{Logical: 1, Mode: experiments.Native},
		func(rt core.Runner) {
			cfg := amg.DefaultConfig()
			cfg.Points = 9
			if _, err := amg.Run(rt, cfg); err == nil {
				t.Error("expected error for 9-point stencil")
			}
			cfg = amg.DefaultConfig()
			cfg.Levels = 10
			if _, err := amg.Run(rt, cfg); err == nil {
				t.Error("expected error for too many levels")
			}
			cfg = amg.DefaultConfig()
			cfg.Solver = "bicg"
			if _, err := amg.Run(rt, cfg); err == nil {
				t.Error("expected error for unknown solver")
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSurvivesCrash(t *testing.T) {
	cfg := amg.DefaultConfig()
	cfg.Iters = 6
	ref, _ := runMode(t, experiments.Intra, 2, cfg)

	results := map[int]*amg.Result{}
	c := newCluster(t, experiments.ClusterConfig{
		Logical: 2, Mode: experiments.Intra, SendLog: true,
	})
	c.Launch(func(rt core.Runner) {
		res, err := amg.Run(rt, cfg)
		if err != nil {
			t.Errorf("rank %d: %v", rt.LogicalRank(), err)
			return
		}
		results[rt.LogicalRank()] = res
	})
	c.E.At(ref[0].Total/2, func() { c.Sys.KillReplica(0, 0) })
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, res := range results {
		if res.Residual != ref[rank].Residual {
			t.Fatalf("rank %d residual after crash %v != %v", rank, res.Residual, ref[rank].Residual)
		}
	}
}

// newCluster builds a cluster from a known-good test config, failing the
// test on a validation error.
func newCluster(t *testing.T, cfg experiments.ClusterConfig) *experiments.Cluster {
	t.Helper()
	c, err := experiments.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
