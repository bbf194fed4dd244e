package hpccg_test

import (
	"math"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func runMode(t *testing.T, mode experiments.Mode, logical int, cfg hpccg.Config) (map[int]*hpccg.Result, sim.Time) {
	t.Helper()
	results := map[int]*hpccg.Result{}
	end, err := experiments.RunProgram(experiments.ClusterConfig{
		Logical: logical,
		Mode:    mode,
	}, func(rt core.Runner) {
		res, err := hpccg.Run(rt, cfg)
		if err != nil {
			t.Errorf("%v rank %d: %v", mode, rt.LogicalRank(), err)
			return
		}
		if prev, ok := results[rt.LogicalRank()]; ok {
			// Replicas of one logical rank must agree bit-for-bit.
			if prev.Residual != res.Residual {
				t.Errorf("replica divergence on rank %d: %v vs %v",
					rt.LogicalRank(), prev.Residual, res.Residual)
			}
		}
		results[rt.LogicalRank()] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, end
}

func TestCGConvergesSingleRank(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Iters = 30
	res, _ := runMode(t, experiments.Native, 1, cfg)
	if res[0].Residual > 1e-6 {
		t.Fatalf("residual %v after %d iters", res[0].Residual, res[0].Iters)
	}
}

func TestCGSameResultAcrossRankCounts(t *testing.T) {
	// The global problem (weak scaling of the z extent) changes with rank
	// count, so instead check: a fixed global problem split over 1, 2, 4
	// ranks yields the same residual sequence.
	residual := func(ranks int) float64 {
		cfg := hpccg.DefaultConfig()
		cfg.Nz = 8 / ranks // global z extent 8
		cfg.Nx, cfg.Ny = 8, 8
		cfg.Iters = 12
		res, _ := runMode(t, experiments.Native, ranks, cfg)
		return res[0].Residual
	}
	r1, r2, r4 := residual(1), residual(2), residual(4)
	if math.Abs(r1-r2) > 1e-9*r1 || math.Abs(r1-r4) > 1e-9*r1 {
		t.Fatalf("decomposition changed the math: %v %v %v", r1, r2, r4)
	}
}

func TestAllModesAgreeNumerically(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 8
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
}

func TestIntraSharesKernelWork(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 5
	res, _ := runMode(t, experiments.Intra, 2, cfg)
	st := res[0].Stats
	if st.TasksRun == 0 || st.TasksReceived == 0 {
		t.Fatalf("no work sharing: %+v", st)
	}
	if st.Sections == 0 || st.UpdateBytes == 0 {
		t.Fatalf("sections did not run: %+v", st)
	}
}

func TestKernelClocksPopulated(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 3
	res, _ := runMode(t, experiments.Native, 2, cfg)
	for _, k := range []string{"ddot", "sparsemv", "waxpby", "halo"} {
		if res[0].Kernels[k] == nil || res[0].Kernels[k].Wall <= 0 {
			t.Fatalf("kernel %s not tracked: %+v", k, res[0].Kernels)
		}
	}
	if res[0].Total <= 0 {
		t.Fatal("total time missing")
	}
}

func TestIntraBeatsClassicOnWallClock(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 16, 16, 16
	cfg.Iters = 6
	_, classicEnd := runMode(t, experiments.Classic, 2, cfg)
	_, intraEnd := runMode(t, experiments.Intra, 2, cfg)
	if intraEnd >= classicEnd {
		t.Fatalf("intra (%v) not faster than classic (%v)", intraEnd, classicEnd)
	}
}

func TestSurvivesReplicaCrashMidRun(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 10

	// Reference run, failure-free.
	ref, _ := runMode(t, experiments.Intra, 2, cfg)

	// Crash one replica of logical rank 1 mid-run.
	results := map[int]*hpccg.Result{}
	c := newCluster(t, experiments.ClusterConfig{
		Logical: 2,
		Mode:    experiments.Intra,
		SendLog: true,
	})
	c.Launch(func(rt core.Runner) {
		res, err := hpccg.Run(rt, cfg)
		if err != nil {
			t.Errorf("rank %d: %v", rt.LogicalRank(), err)
			return
		}
		results[rt.LogicalRank()] = res
	})
	// Half-way through the failure-free runtime.
	c.E.At(ref[0].Total/2, func() { c.Sys.KillReplica(1, 0) })
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, res := range results {
		if res.Residual != ref[rank].Residual {
			t.Fatalf("rank %d residual after crash %v != reference %v",
				rank, res.Residual, ref[rank].Residual)
		}
	}
}

func TestIntraWaxpbySectionPath(t *testing.T) {
	// Figure 5a sections waxpby too; exercise that path end to end and
	// check the numerics still agree with the unsectioned run.
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 6
	ref, _ := runMode(t, experiments.Intra, 2, cfg)
	cfg.IntraWaxpby = true
	got, _ := runMode(t, experiments.Intra, 2, cfg)
	if got[0].Residual != ref[0].Residual {
		t.Fatalf("sectioned waxpby changed the math: %v vs %v",
			got[0].Residual, ref[0].Residual)
	}
	if got[0].Kernels["waxpby"].UpdateWait <= 0 {
		t.Fatal("sectioned waxpby should report update wait")
	}
}

func TestPlaneScaleInflatesHaloCost(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 4
	small, _ := runMode(t, experiments.Native, 2, cfg)
	cfg.PlaneScale = 256
	big, _ := runMode(t, experiments.Native, 2, cfg)
	if big[0].Kernels["halo"].Wall <= small[0].Kernels["halo"].Wall {
		t.Fatalf("halo cost did not scale: %v vs %v",
			big[0].Kernels["halo"].Wall, small[0].Kernels["halo"].Wall)
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
