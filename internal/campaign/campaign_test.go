package campaign_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/campaign"
	"repro/internal/ckptsim"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func smallPoint(name string, mode scenario.Mode) scenario.Scenario {
	return scenario.Scenario{
		Name: name, App: "hpccg",
		Config: scenario.MustRaw(hpccg.Config{
			Nx: 8, Ny: 8, Nz: 8, Iters: 3, Tasks: 8,
			Scale: 64, PlaneScale: 16,
		}),
		Mode: mode, Logical: 2,
	}
}

func smallScenarios() []campaign.Scenario {
	return []campaign.Scenario{
		{Point: smallPoint("intra/lowMTBF", scenario.Intra), MTBF: 100 * sim.Millisecond},
		{Point: smallPoint("intra/highMTBF", scenario.Intra), MTBF: 1000 * sim.Second},
		{Point: smallPoint("classic/lowMTBF", scenario.Classic), MTBF: 100 * sim.Millisecond},
	}
}

// TestCampaignReproducibleAcrossWorkers is the acceptance property: the
// aggregate JSON of a campaign is byte-identical for any worker count,
// given the same (seed, grid).
func TestCampaignReproducibleAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 5} {
		res, err := campaign.Run(campaign.Config{Trials: 12, Seed: 42, Workers: workers}, smallScenarios())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = string(b)
			continue
		}
		if string(b) != want {
			t.Fatalf("workers=%d: aggregate JSON differs from serial run", workers)
		}
	}
}

// TestCampaignSeedSensitivity: a different master seed draws different
// failures (makespans or crash counts move), while re-running the same seed
// reproduces the aggregate exactly.
func TestCampaignSeedSensitivity(t *testing.T) {
	scs := smallScenarios()[:1]
	a, err := campaign.Run(campaign.Config{Trials: 10, Seed: 1}, scs)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := campaign.Run(campaign.Config{Trials: 10, Seed: 1}, scs)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	ja2, _ := json.Marshal(a2)
	if string(ja) != string(ja2) {
		t.Fatal("same seed must reproduce the same aggregate")
	}
	b, err := campaign.Run(campaign.Config{Trials: 10, Seed: 2}, scs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scenarios[0].Crashes == b.Scenarios[0].Crashes &&
		a.Scenarios[0].Makespan == b.Scenarios[0].Makespan {
		t.Fatal("different seeds produced identical crash draws and makespans")
	}
}

// TestCampaignAggregates sanity-checks the statistics: failures only ever
// delay a run, efficiency degrades from the fault-free value, crash
// accounting is consistent, and fault-free draws hit the sweep memo.
func TestCampaignAggregates(t *testing.T) {
	res, err := campaign.Run(campaign.Config{Trials: 15, Seed: 3}, smallScenarios())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 || res.Trials != 15 {
		t.Fatalf("bad shape: %d scenarios, %d trials", len(res.Scenarios), res.Trials)
	}
	for _, s := range res.Scenarios {
		if s.Makespan.Min < s.FaultFreeWallSeconds-1e-12 {
			t.Errorf("%s: a failed run (%.6f) beat the fault-free wall (%.6f)",
				s.Name, s.Makespan.Min, s.FaultFreeWallSeconds)
		}
		if s.Efficiency.Max > s.FaultFreeEfficiency+1e-12 {
			t.Errorf("%s: trial efficiency %.4f above fault-free %.4f",
				s.Name, s.Efficiency.Max, s.FaultFreeEfficiency)
		}
		if s.Makespan.Std < 0 || s.Makespan.CI95 < 0 {
			t.Errorf("%s: negative dispersion", s.Name)
		}
		if s.Crashes.TrialsWithCrash > s.Trials || s.Crashes.MaxPerTrial > s.Logical {
			t.Errorf("%s: inconsistent crash stats %+v", s.Name, s.Crashes)
		}
		if s.Analytic.CCREfficiency < 0 || s.Analytic.CCREfficiency > 1 {
			t.Errorf("%s: cCR efficiency %v out of range", s.Name, s.Analytic.CCREfficiency)
		}
		switch {
		case strings.Contains(s.Name, "lowMTBF"):
			if s.Crashes.Total == 0 {
				t.Errorf("%s: expected crashes at MTBF << wall", s.Name)
			}
		case strings.Contains(s.Name, "highMTBF"):
			if s.Crashes.Total != 0 {
				t.Errorf("%s: unexpected crashes at MTBF >> wall", s.Name)
			}
			if s.MemoHits < s.Trials-1 {
				t.Errorf("%s: fault-free trials should memoize (%d hits of %d)",
					s.Name, s.MemoHits, s.Trials)
			}
			if s.Slowdown.Mean < 1-1e-12 || s.Slowdown.Mean > 1+1e-12 {
				t.Errorf("%s: fault-free slowdown %v != 1", s.Name, s.Slowdown.Mean)
			}
		}
	}
	// Intra must beat classic fault-free; under MTBF << wall the measured
	// intra efficiency degrades toward classic's, the campaign's headline
	// phenomenon.
	intra, classic := res.Scenarios[0], res.Scenarios[2]
	if intra.FaultFreeEfficiency <= classic.FaultFreeEfficiency {
		t.Fatalf("intra ff eff %.3f <= classic %.3f",
			intra.FaultFreeEfficiency, classic.FaultFreeEfficiency)
	}
	if intra.Efficiency.Mean >= intra.FaultFreeEfficiency {
		t.Fatalf("intra under heavy failures should lose efficiency (%.3f >= %.3f)",
			intra.Efficiency.Mean, intra.FaultFreeEfficiency)
	}
}

// TestCampaignHorizonBeyondMakespan is the regression test for the
// clock-stretch bug: crashes drawn past the program's completion are
// no-ops and must not inflate the measured makespan (the engine used to
// advance its clock to every armed crash time while draining the queue).
func TestCampaignHorizonBeyondMakespan(t *testing.T) {
	res, err := campaign.Run(campaign.Config{
		Trials: 10, Seed: 5, Horizon: 1000 * sim.Second,
	}, []campaign.Scenario{{Point: smallPoint("far-horizon", scenario.Intra), MTBF: 100 * sim.Second}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scenarios[0]
	// Crash times are drawn up to 1000 virtual seconds; the run itself
	// lasts well under one. Even a crashed run cannot take longer than a
	// few fault-free walls.
	if s.Makespan.Max > 3*s.FaultFreeWallSeconds {
		t.Fatalf("makespan max %.3fs stretched far beyond the fault-free wall %.3fs: "+
			"post-completion crash events leaked into the clock", s.Makespan.Max, s.FaultFreeWallSeconds)
	}
}

// TestCampaignRejectsBadScenarios: native mode and non-positive MTBF are
// configuration errors, not panics.
func TestCampaignRejectsBadScenarios(t *testing.T) {
	_, err := campaign.Run(campaign.Config{Trials: 1},
		[]campaign.Scenario{{Point: smallPoint("bad", scenario.Native), MTBF: sim.Second}})
	if err == nil || !strings.Contains(err.Error(), "no failures to survive") {
		t.Fatalf("native scenario: got %v", err)
	}
	_, err = campaign.Run(campaign.Config{Trials: 1},
		[]campaign.Scenario{{Point: smallPoint("bad", scenario.Intra)}})
	if err == nil || !strings.Contains(err.Error(), "MTBF") {
		t.Fatalf("zero MTBF: got %v", err)
	}
	if _, err := campaign.Run(campaign.Config{Trials: 1}, nil); err == nil {
		t.Fatal("empty grid must error")
	}
	// A negative window or a non-finite checkpoint setting is refused
	// before anything runs; each used to run as a fault-free campaign or
	// into NaN rows.
	ok := []campaign.Scenario{{Point: smallPoint("ok", scenario.Intra), MTBF: sim.Second}}
	for _, c := range []struct {
		cfg  campaign.Config
		want string
	}{
		{campaign.Config{Horizon: -sim.Second}, "negative horizon -1 s"},
		{campaign.Config{CkptTau: math.Inf(1)}, "checkpoint interval +Inf s"},
		{campaign.Config{CkptDelta: math.NaN()}, "checkpoint cost NaN s"},
		{campaign.Config{CkptRestart: math.Inf(1)}, "restart cost +Inf s"},
	} {
		c.cfg.Trials = 1
		if _, err := campaign.Run(c.cfg, ok); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error naming %q", c.cfg, err, c.want)
		}
	}
	neg := ok[0]
	neg.Horizon = -sim.Second
	if _, err := campaign.Run(campaign.Config{Trials: 1}, []campaign.Scenario{neg}); err == nil ||
		!strings.Contains(err.Error(), "negative horizon -1 s") {
		t.Fatalf("negative scenario horizon: got %v", err)
	}
	// A point that carries its own fault model conflicts with the
	// campaign's draws.
	faulty := smallPoint("bad", scenario.Intra)
	faulty.Fault = &scenario.FaultSpec{MTBFSeconds: 0.5}
	_, err = campaign.Run(campaign.Config{Trials: 1},
		[]campaign.Scenario{{Point: faulty, MTBF: sim.Second}})
	if err == nil || !strings.Contains(err.Error(), "fault model") {
		t.Fatalf("fault-carrying point: got %v", err)
	}
}

// TestFromScenario adapts scenario-file points: the MTBF moves out of the
// fault model, and weak-scaling apps get the CLI grid's native reference
// (full physical budget, degree-shrunk problem) so both entry paths share
// one efficiency baseline.
func TestFromScenario(t *testing.T) {
	pt := smallPoint("hpccg/file-point", scenario.Intra)
	pt.Fault = &scenario.FaultSpec{MTBFSeconds: 0.25, HorizonSeconds: 2}
	sc, err := campaign.FromScenario(pt)
	if err != nil {
		t.Fatal(err)
	}
	if sc.MTBF != 250*sim.Millisecond || sc.Horizon != 2*sim.Second {
		t.Fatalf("fault model not lifted: MTBF %v horizon %v", sc.MTBF, sc.Horizon)
	}
	if sc.Point.Fault != nil {
		t.Fatal("the point must shed its fault model")
	}
	if sc.Native == nil {
		t.Fatal("weak-scaling apps need the native reference")
	}
	if sc.Native.Mode != scenario.Native || sc.Native.Logical != 2*pt.Logical {
		t.Fatalf("native reference must run the full physical budget: %+v", sc.Native)
	}
	ncfg, err := sc.Native.AppConfig()
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := sc.Point.AppConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ncfg.(*hpccg.Config).Nz, pcfg.(*hpccg.Config).Nz/2; got != want {
		t.Fatalf("native per-rank problem must be degree-shrunk: Nz %d, want %d", got, want)
	}

	gtcPt := scenario.Scenario{Name: "gtc/file-point", App: "gtc", Mode: scenario.Intra,
		Logical: 4, Fault: &scenario.FaultSpec{MTBFSeconds: 0.1}}
	sc, err = campaign.FromScenario(gtcPt)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Native != nil {
		t.Fatal("fixed-size apps use the constant-problem reference (nil Native)")
	}

	if _, err := campaign.FromScenario(smallPoint("no-fault", scenario.Intra)); err == nil {
		t.Fatal("a point without an MTBF cannot join a campaign")
	}
}

// TestCampaignTable renders without panicking and carries one row per
// scenario.
func TestCampaignTable(t *testing.T) {
	res, err := campaign.Run(campaign.Config{Trials: 4, Seed: 9}, smallScenarios()[:2])
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table()
	if len(tab.Rows) != 2 {
		t.Fatalf("table rows = %d, want 2", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "intra/lowMTBF") {
		t.Fatal("table missing scenario name")
	}
}

// ccrPoint pins tau/delta/R to the tiny test scale (the native wall is
// ~19 ms, so the default Daly-optimal interval would exceed the whole run
// and never checkpoint).
func ccrPoint(name string, mtbf sim.Time) campaign.Scenario {
	pt := smallPoint(name, scenario.CCR)
	pt.Ckpt = &scenario.CkptOptions{TauSeconds: 0.002, DeltaSeconds: 0.0005, RestartSeconds: 0.0005}
	return campaign.Scenario{Point: pt, MTBF: mtbf}
}

// TestCCRStalledPointBounded: at a stalled operating point — GTC on 8
// nodes at a 0.01 s node MTBF, where a checkpoint costs more than the
// system MTBF — the defaulted horizon stops growing before its window is
// expected to hold more than 2^20 failures. The trial, and the tau
// search's replay trace, return a truncated makespan instead of drawing
// about 50 million failures (several GB of trace).
func TestCCRStalledPointBounded(t *testing.T) {
	const failureCap = 1 << 20
	scs, err := scenario.Grid{Apps: []string{"gtc"}, Modes: []scenario.Mode{scenario.CCR}, Procs: []int{8}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pt := scs[0]
	pt.Fault = &scenario.FaultSpec{MTBFSeconds: 0.01}
	sc, err := campaign.FromScenario(pt)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := campaign.PreparePoints(campaign.Config{Trials: 1, Seed: 1, Workers: 1}, []campaign.Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	for _, tr := range []ckptsim.Trial{p.CCRTrial(0), p.ReplayTrace(1, 0, p.Params)} {
		if tr.Failures == 0 || tr.Failures >= failureCap {
			t.Fatalf("stalled trial hit by %d failures, want (0, %d)", tr.Failures, failureCap)
		}
		if tr.Makespan < 1000*p.NativeWall {
			t.Fatalf("point is not stalled: makespan %g s, native wall %g s", tr.Makespan, p.NativeWall)
		}
	}
}

// TestClassicTrialsReplayOnlyCrashes pins the replay rule campaign shares
// with jobstream: a classic trial replays the recorded op trace only when
// its draw crashes something. A fault-free trial is the point's executed
// reference itself, so it keys equal to that run and dedupes against it in
// the memo and the store.
func TestClassicTrialsReplayOnlyCrashes(t *testing.T) {
	pt := smallPoint("classic", scenario.Classic)
	pt.Fault = &scenario.FaultSpec{MTBFSeconds: 1}
	sc, err := campaign.FromScenario(pt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Trials: 1, Seed: 1, Workers: 1}
	pts, err := campaign.PreparePoints(cfg, []campaign.Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	// About half the trials crash: 4 processes, each failing with
	// probability 1 - 2^(-1/4) within the fault-free makespan.
	sc.MTBF = sim.Seconds(4 * pts[0].FFWall / math.Ln2)
	if pts, err = campaign.PreparePoints(cfg, []campaign.Scenario{sc}); err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.SpecFor(sc.Point)
	if err != nil {
		t.Fatal(err)
	}
	refKey, err := ref.Key()
	if err != nil {
		t.Fatal(err)
	}
	var crashed, clean int
	for trial := 0; trial < 32; trial++ {
		spec, d := pts[0].TrialSpec(trial)
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Schedule.Crashes) > 0 {
			crashed++
			if spec.Replay == nil {
				t.Fatalf("trial %d: %d crashes but executed", trial, len(d.Schedule.Crashes))
			}
			continue
		}
		clean++
		if spec.Replay != nil || key != refKey {
			t.Fatalf("trial %d: fault-free trial is not the executed reference (replay %v, reference key %v)",
				trial, spec.Replay != nil, key == refKey)
		}
	}
	if crashed == 0 || clean == 0 {
		t.Fatalf("%d crashed and %d fault-free trials: the draw covers one kind only", crashed, clean)
	}
}

// TestCampaignCCRMeasuredVsAnalytic is the acceptance property of the
// measured checkpoint/restart side: at a moderate MTBF the mean measured
// efficiency lands within the documented 15% of Daly's prediction at the
// same (tau, delta, R, system MTBF) — ckpt.Efficiency — and near the
// §II collapse it falls below both the moderate-MTBF value and the
// scenario's fault-free efficiency.
func TestCampaignCCRMeasuredVsAnalytic(t *testing.T) {
	res, err := campaign.Run(campaign.Config{Trials: 400, Seed: 2},
		[]campaign.Scenario{
			ccrPoint("ccr/moderate", 2*sim.Second),
			ccrPoint("ccr/collapse", 4*sim.Millisecond),
		})
	if err != nil {
		t.Fatal(err)
	}
	mod, low := res.Scenarios[0], res.Scenarios[1]
	if mod.Mode != "cCR" || mod.Degree != 1 || mod.PhysProcs != 2 {
		t.Fatalf("ccr identity wrong: %+v", mod)
	}
	if mod.Analytic.CkptTauSeconds <= 0 {
		t.Fatal("ccr row must report the replayed checkpoint interval")
	}
	if mod.FaultFreeWallSeconds <= mod.NativeWallSeconds {
		t.Fatalf("ccr fault-free wall %v must include checkpoint overhead over the native %v",
			mod.FaultFreeWallSeconds, mod.NativeWallSeconds)
	}
	for _, s := range []campaign.ScenarioResult{mod, low} {
		if s.Analytic.CCREfficiency <= 0 || s.Analytic.CCREfficiency >= 1 {
			t.Fatalf("%s: analytic eff %v out of range", s.Name, s.Analytic.CCREfficiency)
		}
		if rel := (s.Efficiency.Mean - s.Analytic.CCREfficiency) / s.Analytic.CCREfficiency; rel > 0.15 || rel < -0.15 {
			t.Fatalf("%s: measured eff %v vs Daly %v: off by %.1f%% (> documented 15%%)",
				s.Name, s.Efficiency.Mean, s.Analytic.CCREfficiency, 100*rel)
		}
	}
	if low.Efficiency.Mean >= mod.Efficiency.Mean {
		t.Fatalf("efficiency must collapse with MTBF: %v at low vs %v at moderate",
			low.Efficiency.Mean, mod.Efficiency.Mean)
	}
	if low.Efficiency.Mean >= low.FaultFreeEfficiency {
		t.Fatalf("collapsed efficiency %v above fault-free %v",
			low.Efficiency.Mean, low.FaultFreeEfficiency)
	}
	if low.Crashes.Total == 0 || low.Crashes.MeanPerTrial <= mod.Crashes.MeanPerTrial {
		t.Fatalf("crash accounting: %+v at low MTBF vs %+v at moderate", low.Crashes, mod.Crashes)
	}
}

// TestCampaignThreeWayCrossover runs the Fig. 1-style grid — a measured
// cCR series and a measured replication series over one MTBF axis — and
// checks the campaign pairs them: a measured crossover inside the sampled
// axis, reported next to the analytic ckpt.CrossoverMTBF, and the whole
// aggregate byte-identical across worker counts.
func TestCampaignThreeWayCrossover(t *testing.T) {
	mtbfs := []sim.Time{4 * sim.Millisecond, 20 * sim.Second}
	var scs []campaign.Scenario
	for _, m := range mtbfs {
		scs = append(scs, ccrPoint(fmt.Sprintf("ccr/mtbf%v", m), m))
		scs = append(scs, campaign.Scenario{
			Point: smallPoint(fmt.Sprintf("intra/mtbf%v", m), scenario.Intra), MTBF: m})
	}
	var want string
	for _, workers := range []int{1, 4} {
		res, err := campaign.Run(campaign.Config{Trials: 10, Seed: 7, Workers: workers}, scs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = string(b)
		} else if string(b) != want {
			t.Fatal("worker count changed the three-way aggregate")
		}

		if len(res.Crossovers) != 1 {
			t.Fatalf("crossovers = %+v, want exactly one ccr-vs-intra pairing", res.Crossovers)
		}
		x := res.Crossovers[0]
		if x.ReplMode != "intra" || x.CCRPhysProcs != 2 {
			t.Fatalf("crossover identity: %+v", x)
		}
		lo, hi := mtbfs[0].Seconds(), mtbfs[1].Seconds()
		if x.MeasuredNodeMTBFSeconds <= lo || x.MeasuredNodeMTBFSeconds >= hi {
			t.Fatalf("measured crossover %v outside the bracketing axis [%v, %v]",
				x.MeasuredNodeMTBFSeconds, lo, hi)
		}
		if x.AnalyticNodeMTBFSeconds <= 0 {
			t.Fatalf("analytic crossover missing: %+v", x)
		}
		// The grid really does cross: cCR above replication at high MTBF,
		// below it at the collapse point.
		effOf := func(name string) float64 {
			for _, s := range res.Scenarios {
				if s.Name == name {
					return s.Efficiency.Mean
				}
			}
			t.Fatalf("scenario %q missing", name)
			return 0
		}
		if effOf("ccr/mtbf4.000ms") >= effOf("intra/mtbf4.000ms") {
			t.Fatal("cCR should lose at collapsed MTBF")
		}
		if effOf("ccr/mtbf20.0000s") <= effOf("intra/mtbf20.0000s") {
			t.Fatal("cCR should win at high MTBF")
		}
	}
}

// TestStatSingleTrialCI: one trial gives no dispersion estimate — CI95 is
// NaN, JSON null, and "-" in the rendered table — never a zero that reads
// as a perfectly tight interval.
func TestStatSingleTrialCI(t *testing.T) {
	res, err := campaign.Run(campaign.Config{Trials: 1, Seed: 4},
		[]campaign.Scenario{{Point: smallPoint("one", scenario.Intra), MTBF: sim.Second}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scenarios[0]
	if !math.IsNaN(s.Makespan.CI95) || !math.IsNaN(s.Efficiency.CI95) {
		t.Fatalf("1-trial CI95 must be NaN, got %v / %v", s.Makespan.CI95, s.Efficiency.CI95)
	}
	b, err := json.Marshal(s.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"ci95":null`) {
		t.Fatalf("1-trial ci95 must encode as null: %s", b)
	}
	var back campaign.Stat
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.CI95) || back.Mean != s.Makespan.Mean {
		t.Fatalf("round trip mangled the stat: %+v", back)
	}
	if tab := res.Table().String(); !strings.Contains(tab, "-") {
		t.Fatal("table must render the undefined CI as '-'")
	}
	// Two trials restore a defined (possibly zero) interval.
	res2, err := campaign.Run(campaign.Config{Trials: 2, Seed: 4},
		[]campaign.Scenario{{Point: smallPoint("two", scenario.Intra), MTBF: sim.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res2.Scenarios[0].Makespan.CI95) {
		t.Fatal("2-trial CI95 must be defined")
	}
}

// TestFromScenarioCCR: ccr scenario-file points adapt like any campaign
// point — the MTBF lifts out of the fault model, the ckpt options stay on
// the point, and the native reference is the point itself in native mode.
func TestFromScenarioCCR(t *testing.T) {
	pt := smallPoint("ccr/file-point", scenario.CCR)
	pt.Ckpt = &scenario.CkptOptions{TauSeconds: 0.05, DeltaSeconds: 0.004}
	pt.Fault = &scenario.FaultSpec{MTBFSeconds: 0.25}
	sc, err := campaign.FromScenario(pt)
	if err != nil {
		t.Fatal(err)
	}
	if sc.MTBF != 250*sim.Millisecond || sc.Point.Fault != nil {
		t.Fatalf("fault model not lifted: %+v", sc)
	}
	if sc.Point.Ckpt == nil || sc.Point.Ckpt.TauSeconds != 0.05 {
		t.Fatalf("ckpt options lost: %+v", sc.Point)
	}
	if sc.Native != nil {
		t.Fatal("ccr points are their own native reference shape (nil Native)")
	}
}
