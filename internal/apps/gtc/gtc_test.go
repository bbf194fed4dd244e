package gtc_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps/gtc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func runMode(t *testing.T, mode experiments.Mode, logical int, cfg gtc.Config) (map[int]*gtc.Result, sim.Time) {
	t.Helper()
	results := map[int]*gtc.Result{}
	end, err := experiments.RunProgram(experiments.ClusterConfig{
		Logical: logical,
		Mode:    mode,
	}, func(rt core.Runner) {
		res, err := gtc.Run(rt, cfg)
		if err != nil {
			t.Errorf("%v rank %d: %v", mode, rt.LogicalRank(), err)
			return
		}
		if prev, ok := results[rt.LogicalRank()]; ok && prev.FieldEnergy != res.FieldEnergy {
			t.Errorf("replica divergence: %v vs %v", prev.FieldEnergy, res.FieldEnergy)
		}
		results[rt.LogicalRank()] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, end
}

func TestWeightConserved(t *testing.T) {
	cfg := gtc.DefaultConfig()
	res, _ := runMode(t, experiments.Native, 2, cfg)
	// Each rank contributes total weight 1 per zone set (weights sum to 1
	// per zone's particle set of 1/n each... total = zones per rank).
	want := res[0].TotalWeight
	if want <= 0 {
		t.Fatalf("weight %v", want)
	}
	// Weight must not change over time: rerun with more steps.
	cfg2 := cfg
	cfg2.Steps *= 2
	res2, _ := runMode(t, experiments.Native, 2, cfg2)
	if math.Abs(res2[0].TotalWeight-want) > 1e-9*want {
		t.Fatalf("weight drifted: %v -> %v", want, res2[0].TotalWeight)
	}
}

func TestAllModesAgree(t *testing.T) {
	cfg := gtc.DefaultConfig()
	var base float64
	for _, mode := range []experiments.Mode{experiments.Native, experiments.Classic, experiments.Intra} {
		res, _ := runMode(t, mode, 2, cfg)
		if mode == experiments.Native {
			base = res[0].FieldEnergy
			continue
		}
		if res[0].FieldEnergy != base {
			t.Fatalf("%v field energy %v != native %v", mode, res[0].FieldEnergy, base)
		}
	}
}

func TestInoutCopiesCharged(t *testing.T) {
	// GTC's push declares positions/velocities inout; the intra runtime
	// must charge extra copies (the ~6% overhead of §V-D).
	cfg := gtc.DefaultConfig()
	res, _ := runMode(t, experiments.Intra, 1, cfg)
	if res[0].Stats.CopyTime <= 0 {
		t.Fatalf("no inout copy time charged: %+v", res[0].Stats)
	}
}

func TestChargeAndPushDominate(t *testing.T) {
	cfg := gtc.DefaultConfig()
	cfg.PerCell = 64 // particle-heavy, like the real code
	res, _ := runMode(t, experiments.Native, 2, cfg)
	k := res[0].Kernels
	mains := k["charge"].Wall + k["push"].Wall
	others := k["field"].Wall + k["shift"].Wall
	if mains <= 2*others {
		t.Fatalf("charge+push (%v) should dominate field+shift (%v)", mains, others)
	}
}

func TestSurvivesCrashMidPush(t *testing.T) {
	cfg := gtc.DefaultConfig()
	ref, _ := runMode(t, experiments.Intra, 2, cfg)

	results := map[int]*gtc.Result{}
	c := newCluster(t, experiments.ClusterConfig{
		Logical: 2, Mode: experiments.Intra, SendLog: true,
	})
	c.Launch(func(rt core.Runner) {
		res, err := gtc.Run(rt, cfg)
		if err != nil {
			t.Errorf("rank %d: %v", rt.LogicalRank(), err)
			return
		}
		results[rt.LogicalRank()] = res
	})
	c.E.At(ref[0].Total/2, func() { c.Sys.KillReplica(1, 1) })
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, res := range results {
		if res.FieldEnergy != ref[rank].FieldEnergy {
			t.Fatalf("rank %d energy after crash %v != %v", rank, res.FieldEnergy, ref[rank].FieldEnergy)
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

// TestAppForRejectsZonesUnderTwoCells: a zone needs two cells. With one
// (64 cells over 64 zones) the charge and push kernels indexed rho[-1];
// with none (over 100 zones) a run simulated no particles and reported
// time 0. experiments.AppFor, which binds an app before anything is
// simulated, rejects both and accepts two cells per zone.
func TestAppForRejectsZonesUnderTwoCells(t *testing.T) {
	for _, zones := range []int{64, 100} {
		cfg := gtc.PaperConfig()
		cfg.Zones = zones
		_, err := experiments.AppFor("gtc", &cfg)
		if want := fmt.Sprintf("64 cells over %d zones", zones); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%d zones: err = %v, want one naming %q", zones, err, want)
		}
	}
	cfg := gtc.PaperConfig()
	cfg.Zones = 32
	if _, err := experiments.AppFor("gtc", &cfg); err != nil {
		t.Errorf("32 zones of 2 cells: %v", err)
	}
}
