package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ckptsim"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// doublingTrial is ccrTrial as it was before the failure stream: draw the
// whole window, replay it, and with grow set double the window and redraw
// until the replay fits or a bound stops the doubling.
func doublingTrial(work float64, p ckptsim.Params, nodes int, mtbf, horizon sim.Time, grow bool, seed int64) ckptsim.Trial {
	h := horizon
	for doublings := 0; ; doublings++ {
		d := fault.ExponentialDrawUnclamped(nodes, 1, mtbf, h, seed)
		times := make([]float64, len(d.Schedule.Crashes))
		for i, c := range d.Schedule.Crashes {
			times[i] = c.Time.Seconds()
		}
		tr, err := ckptsim.Replay(work, p, times)
		if err != nil {
			panic(err)
		}
		if !grow || tr.Makespan <= h.Seconds() || doublings >= maxHorizonDoublings ||
			float64(nodes)*float64(2*h)/float64(mtbf) > maxWindowFailures {
			return tr
		}
		h *= 2
	}
}

// TestCCRTrialMatchesDoublingLoop: over random machines, node counts,
// MTBFs, horizons and seeds, a ccr trial replayed from the failure stream
// equals the window-doubling loop it replaced, stalled points (whose
// makespan outruns the last window) included. The loop redraws a stalled
// point's windows up to about 2^20 failures each, so only the first three
// stalled cases run it, and none under the race detector.
func TestCCRTrialMatchesDoublingLoop(t *testing.T) {
	const maxStalled = 3
	pick := rand.New(rand.NewSource(8))
	logU := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*pick.Float64()) }
	cases, stalled, skipped := 0, 0, 0
	for i := 0; i < 400; i++ {
		nodes := 1 + pick.Intn(16)
		work := 0.05 + pick.Float64()
		mtbf := sim.Seconds(float64(nodes) * work * logU(-1.2, 1.5))
		p := ckptsim.Params{Tau: work * logU(-1.5, 0.2)}
		p.Delta = p.Tau * 0.3 * pick.Float64()
		p.Restart = p.Delta * (0.5 + 1.5*pick.Float64())
		grow := pick.Intn(4) != 0
		horizon := sim.Seconds(p.FaultFreeMakespan(work))
		if !grow {
			horizon = sim.Seconds(work * logU(-1, 1.5))
		}
		seed := int64(pick.Uint64())

		got := ccrTrial(work, p, nodes, mtbf, horizon, grow, seed)
		if grow && got.Makespan > ccrWindow(nodes, mtbf, horizon).Seconds() {
			if stalled >= maxStalled || testutil.RaceEnabled {
				skipped++
				continue
			}
			stalled++
		}
		cases++
		if want := doublingTrial(work, p, nodes, mtbf, horizon, grow, seed); got != want {
			t.Fatalf("case %d (%d nodes, mtbf %v, %+v, work %v, horizon %v, grow %v, seed %d): stream %+v, doubling loop %+v",
				i, nodes, mtbf, p, work, horizon, grow, seed, got, want)
		}
	}
	t.Logf("%d cases compared, %d of them stalled; %d stalled cases skipped", cases, stalled, skipped)
	if !testutil.RaceEnabled && stalled == 0 {
		t.Fatal("no stalled case compared")
	}
}

// TestCCRTrialAllocBudget pins a ccr trial's memory to its failure slots,
// not its window: one GTC p8 trial allocates under 64 KiB at a stalled
// point (node MTBF 0.01 s, where the window-doubling draw allocated about
// 235 MB) and under an explicit 1e4 s horizon at MTBF 1 s (about 12 MB).
func TestCCRTrialAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const budget = 64 << 10
	scs, err := scenario.Grid{Apps: []string{"gtc"}, Modes: []scenario.Mode{scenario.CCR}, Procs: []int{8}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mtbf    float64
		horizon sim.Time
	}{{0.01, 0}, {1, sim.Seconds(1e4)}} {
		pt := scs[0]
		pt.Fault = &scenario.FaultSpec{MTBFSeconds: c.mtbf}
		sc, err := FromScenario(pt)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := PreparePoints(Config{Seed: 1, Workers: 1, Horizon: c.horizon}, []Scenario{sc})
		if err != nil {
			t.Fatal(err)
		}
		p := pts[0]
		p.CCRTrial(0) // warm anything lazily built
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const trials = 4
		for k := 1; k <= trials; k++ {
			p.CCRTrial(k)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / trials
		name := fmt.Sprintf("mtbf %g s, horizon %v", c.mtbf, c.horizon)
		t.Logf("%s: %d bytes per trial", name, per)
		if per >= budget {
			t.Errorf("%s: a ccr trial allocates %d bytes, budget %d", name, per, budget)
		}
	}
}
