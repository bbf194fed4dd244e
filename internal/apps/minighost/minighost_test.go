package minighost_test

import (
	"testing"

	"repro/internal/apps/minighost"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func runMode(t *testing.T, mode experiments.Mode, logical int, cfg minighost.Config) (map[int]*minighost.Result, sim.Time) {
	t.Helper()
	results := map[int]*minighost.Result{}
	end, err := experiments.RunProgram(experiments.ClusterConfig{
		Logical: logical,
		Mode:    mode,
	}, func(rt core.Runner) {
		res, err := minighost.Run(rt, cfg)
		if err != nil {
			t.Errorf("%v rank %d: %v", mode, rt.LogicalRank(), err)
			return
		}
		if prev, ok := results[rt.LogicalRank()]; ok && prev.Checksum != res.Checksum {
			t.Errorf("replica divergence: %v vs %v", prev.Checksum, res.Checksum)
		}
		results[rt.LogicalRank()] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, end
}

func TestAveragingStencilConservesChecksumShape(t *testing.T) {
	cfg := minighost.DefaultConfig()
	res, _ := runMode(t, experiments.Native, 2, cfg)
	if res[0].Checksum == 0 {
		t.Fatal("checksum should be nonzero for nonzero initial grids")
	}
	if res[0].Checksum != res[1].Checksum {
		t.Fatal("global checksum must agree across ranks")
	}
}

func TestAllModesAgree(t *testing.T) {
	cfg := minighost.DefaultConfig()
	var base float64
	for _, mode := range []experiments.Mode{experiments.Native, experiments.Classic, experiments.Intra} {
		res, _ := runMode(t, mode, 2, cfg)
		if mode == experiments.Native {
			base = res[0].Checksum
			continue
		}
		if res[0].Checksum != base {
			t.Fatalf("%v checksum %v != native %v", mode, res[0].Checksum, base)
		}
	}
}

func TestGsumIsSmallFractionOfRuntime(t *testing.T) {
	// The paper could only intra-parallelize the grid summation, ~10% of
	// MiniGhost's runtime (§V-D). Check the stencil dominates.
	cfg := minighost.DefaultConfig()
	cfg.Steps = 3
	res, _ := runMode(t, experiments.Native, 2, cfg)
	st := res[0].Kernels["stencil27"].Wall
	gs := res[0].Kernels["gsum"].Wall
	if gs >= st {
		t.Fatalf("gsum (%v) should be much smaller than stencil (%v)", gs, st)
	}
}

func TestIntraSectionsOnlyForGsum(t *testing.T) {
	cfg := minighost.DefaultConfig()
	res, _ := runMode(t, experiments.Intra, 2, cfg)
	st := res[0].Stats
	wantSections := cfg.Steps * cfg.ReduceVars
	if st.Sections != wantSections {
		t.Fatalf("sections = %d, want %d", st.Sections, wantSections)
	}
}

func TestSurvivesCrash(t *testing.T) {
	cfg := minighost.DefaultConfig()
	ref, _ := runMode(t, experiments.Intra, 2, cfg)

	results := map[int]*minighost.Result{}
	c := newCluster(t, experiments.ClusterConfig{
		Logical: 2, Mode: experiments.Intra, SendLog: true,
	})
	c.Launch(func(rt core.Runner) {
		res, err := minighost.Run(rt, cfg)
		if err != nil {
			t.Errorf("rank %d: %v", rt.LogicalRank(), err)
			return
		}
		results[rt.LogicalRank()] = res
	})
	c.E.At(ref[0].Total/3, func() { c.Sys.KillReplica(0, 1) })
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, res := range results {
		if res.Checksum != ref[rank].Checksum {
			t.Fatalf("rank %d checksum after crash %v != %v", rank, res.Checksum, ref[rank].Checksum)
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
