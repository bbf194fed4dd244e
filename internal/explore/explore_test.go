package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

func smallPoint(name string, mode scenario.Mode) scenario.Scenario {
	return scenario.Scenario{
		Name: name, App: "hpccg",
		Config: scenario.MustRaw(hpccg.Config{
			Nx: 8, Ny: 8, Nz: 8, Iters: 3, Tasks: 8,
			Scale: 64, PlaneScale: 16,
			IntraDdot: true, IntraSparsemv: true,
		}),
		Mode: mode, Logical: 2,
	}
}

func ccrScen(name string, mtbf sim.Time) campaign.Scenario {
	pt := smallPoint(name, scenario.CCR)
	pt.Ckpt = &scenario.CkptOptions{TauSeconds: 0.002, DeltaSeconds: 0.0005, RestartSeconds: 0.0005}
	return campaign.Scenario{Point: pt, MTBF: mtbf}
}

// crossoverGrid is the Fig. 1-style pair: a ccr series and an intra series
// over an MTBF axis whose endpoints land on opposite sides of the
// efficiency crossover (same axis the campaign crossover test uses).
func crossoverGrid() []campaign.Scenario {
	var scs []campaign.Scenario
	for _, m := range []sim.Time{4 * sim.Millisecond, 20 * sim.Second} {
		scs = append(scs, ccrScen(fmt.Sprintf("ccr/mtbf%v", m), m))
		scs = append(scs, campaign.Scenario{
			Point: smallPoint(fmt.Sprintf("intra/mtbf%v", m), scenario.Intra), MTBF: m})
	}
	return scs
}

// TestBisectSynthetic drives the bisection with a synthetic monotone
// difference curve whose crossover is known, checking the final bracket
// contains it at the requested ratio — and that an unseparable probe stops
// the search at the midpoint instead of spending more budget.
func TestBisectSynthetic(t *testing.T) {
	const m0 = 0.37
	probes := 0
	out, err := bisectCrossover(bracket{
		lo: 0.01, hi: 10, dlo: math.Log(0.01 / m0), dhi: math.Log(10 / m0),
		targetRatio: 1.05,
	}, func(m float64) (probeOut, error) {
		probes++
		return probeOut{diff: math.Log(m / m0), ci: 1e-6, trials: 10, separated: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.separated {
		t.Fatal("synthetic probes always separate, bisection said otherwise")
	}
	if out.lo > m0 || out.hi < m0 {
		t.Fatalf("final bracket [%v, %v] lost the crossover %v", out.lo, out.hi, m0)
	}
	if r := out.hi / out.lo; r > 1.05 {
		t.Fatalf("bracket ratio %v above target 1.05", r)
	}
	if out.trials != 10*probes || len(out.probes) != probes {
		t.Fatalf("probe accounting: %d probes, %d logged, %d trials", probes, len(out.probes), out.trials)
	}
	// Log-space halving: reaching ratio 1.05 from 1000x takes ceil(log2(ln1000/ln1.05)) = 8 probes.
	if probes > 9 {
		t.Fatalf("bisection took %d probes for a 1000x bracket", probes)
	}

	out, err = bisectCrossover(bracket{lo: 0.01, hi: 10, dlo: -1, dhi: 1, targetRatio: 1.05},
		func(m float64) (probeOut, error) {
			return probeOut{diff: 0.01, ci: 0.5, trials: 4, separated: false}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(0.01 * 10)
	if out.separated || out.mid != want || len(out.probes) != 1 {
		t.Fatalf("unseparable probe should stop at first midpoint %v: %+v", want, out)
	}
}

// TestAdaptivePrefixIdentity is the determinism property behind the whole
// design: each point's adaptive aggregate is byte-identical to a fixed
// campaign.Run at the same seed over the same trial count — the
// round-by-round allocation leaves no trace in the numbers, because both
// drivers draw trials from the same per-point stream.
func TestAdaptivePrefixIdentity(t *testing.T) {
	cfg := Config{Budget: 60, Round: 4, TargetCI: 0.01, Seed: 11, Workers: 3}
	scs := []campaign.Scenario{
		{Point: smallPoint("intra/low", scenario.Intra), MTBF: 100 * sim.Millisecond},
		ccrScen("ccr/low", 50*sim.Millisecond),
	}
	res, err := Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spent > cfg.Budget {
		t.Fatalf("spent %d over budget %d", res.Spent, cfg.Budget)
	}
	for i, got := range res.Points {
		if got.Trials == 0 {
			t.Fatalf("point %d got no trials", i)
		}
		fixed, err := campaign.Run(campaign.Config{Trials: got.Trials, Seed: cfg.Seed, Workers: 2}, scs[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		want := fixed.Scenarios[0]
		for m, pair := range [][2]campaign.Stat{
			{got.Makespan, want.Makespan}, {got.Slowdown, want.Slowdown}, {got.Efficiency, want.Efficiency},
		} {
			gb, _ := json.Marshal(pair[0])
			wb, _ := json.Marshal(pair[1])
			if !bytes.Equal(gb, wb) {
				t.Fatalf("point %d metric %d: adaptive %s != campaign.Run over %d trials %s",
					i, m, gb, got.Trials, wb)
			}
		}
		if got.Crashes != want.Crashes.Total {
			t.Fatalf("point %d: adaptive crashes %d != campaign.Run %d", i, got.Crashes, want.Crashes.Total)
		}
	}
}

// TestExploreWorkersByteIdentical: the full exploration — refinement,
// crossover bisection with its dynamically chosen probes, tau search — is
// byte-identical at any worker count.
func TestExploreWorkersByteIdentical(t *testing.T) {
	cfg := Config{Budget: 260, Round: 5, TargetCI: 0.2, BracketRatio: 2.5, TauTraces: 5, Seed: 7}
	var want []byte
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, err := Run(cfg, crossoverGrid())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = b
			if res.Spent > cfg.Budget {
				t.Fatalf("spent %d over budget %d", res.Spent, cfg.Budget)
			}
			if len(res.Crossovers) != 1 {
				t.Fatalf("crossovers = %+v, want exactly one ccr-vs-intra pairing", res.Crossovers)
			}
			x := res.Crossovers[0]
			if x.MeasuredNodeMTBFSeconds <= 0.004 || x.MeasuredNodeMTBFSeconds >= 20 {
				t.Fatalf("measured crossover %v outside the grid bracket", x.MeasuredNodeMTBFSeconds)
			}
			if x.Separated && x.BracketHiSeconds/x.BracketLoSeconds > cfg.BracketRatio {
				t.Fatalf("separated bisection left bracket ratio %v above target", x.BracketHiSeconds/x.BracketLoSeconds)
			}
			if len(res.Tau) != 2 {
				t.Fatalf("tau results = %d, want one per ccr point", len(res.Tau))
			}
			for _, ts := range res.Tau {
				if ts.Trials > 0 && ts.MeasuredTau <= 0 {
					t.Fatalf("tau search spent %d trials without a measured optimum", ts.Trials)
				}
			}
		} else if !bytes.Equal(b, want) {
			t.Fatalf("workers=%d: exploration JSON differs from serial run", workers)
		}
	}
}

// TestExploreWarmStore: a store-backed re-run reproduces the result byte
// for byte with zero store misses — every simulation and every persisted
// record (grid cells, probe cells, crossovers, tau searches) is found and
// byte-verified.
func TestExploreWarmStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 140, Round: 4, TargetCI: 0.25, BracketRatio: 3, TauTraces: 4, Seed: 9, Workers: 2}
	run := func(label string) (*Result, store.Stats) {
		st, err := store.Open(dir, label)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
		res, err := Run(cfg, crossoverGrid())
		if err != nil {
			t.Fatal(err)
		}
		return res, st.Stats()
	}
	res1, stats1 := run("cold")
	if stats1.Puts == 0 {
		t.Fatal("cold run persisted nothing")
	}
	if res1.StoreVerified() != 0 {
		t.Fatalf("cold run claims %d verified records", res1.StoreVerified())
	}
	res2, stats2 := run("warm")
	if stats2.Misses != 0 {
		t.Fatalf("warm run missed the store %d times (stats %v)", stats2.Misses, stats2)
	}
	if res2.StoreVerified() == 0 {
		t.Fatal("warm run verified no stored records")
	}
	b1, _ := json.MarshalIndent(res1, "", " ")
	b2, _ := json.MarshalIndent(res2, "", " ")
	if !bytes.Equal(b1, b2) {
		t.Fatal("warm store-backed run diverged from cold run")
	}
}
