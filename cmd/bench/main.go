// Command bench runs the repository's performance trajectory: micro
// benchmarks of the simulation substrate (raw engine event throughput,
// point-to-point messaging, a 64-rank allreduce) and macro benchmarks at
// campaign scale (the CI smoke sweep, Monte Carlo failure trials), and
// writes the results as machine-readable JSON (BENCH_sim.json at the repo
// root by default). CI uploads the file as an artifact next to the
// determinism artifacts, so every commit carries its measured throughput.
//
// The embedded baseline is re-pinned each time a PR makes a deliberate
// performance claim; it currently holds the PR-8 substrate (allocation-light
// DES core, goroutine-per-rank collectives, fresh engine per spec), measured
// on the same benchmark bodies. The speedup section reports
// current/baseline so the collective-coalescing + engine-pooling refactor
// stays an observable, regression-checked fact; -min-speedup turns it into
// a hard gate for CI.
//
//	go run ./cmd/bench -out BENCH_sim.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/jobstream"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Bench is one micro-benchmark result.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// Macro is one campaign-scale result: total wall time for a known unit
// count, plus the derived rate.
type Macro struct {
	Name       string  `json:"name"`
	Units      string  `json:"units"`
	Count      int     `json:"count"`
	Seconds    float64 `json:"seconds"`
	RatePerSec float64 `json:"rate_per_sec"`
}

// Speedup compares a current micro benchmark against the baseline.
type Speedup struct {
	Throughput  float64 `json:"throughput_x"`   // baseline ns/op ÷ current ns/op
	AllocsRatio float64 `json:"allocs_ratio_x"` // baseline allocs/op ÷ current (+1 each to tolerate zero)
}

// ExploreBench compares two ways of locating the ccr-vs-replication
// efficiency crossover to comparable resolution: a fixed dense MTBF grid
// at a fixed per-point trial count, and the adaptive explorer (coarse
// two-point axis, CI-driven refinement plus bisection) whose bracket
// target equals the fixed grid's step ratio. TrialsRatio is the headline:
// fixed trials over adaptive (refine + bisect; tau search excluded — the
// fixed side has no counterpart).
type ExploreBench struct {
	FixedPoints       int     `json:"fixed_points"`
	FixedTrials       int     `json:"fixed_trials"`
	FixedStepRatio    float64 `json:"fixed_step_ratio"`
	FixedCrossover    float64 `json:"fixed_crossover_mtbf_seconds"`
	FixedSeconds      float64 `json:"fixed_seconds"`
	AdaptiveTrials    int     `json:"adaptive_trials"`
	AdaptiveCross     float64 `json:"adaptive_crossover_mtbf_seconds"`
	AdaptiveLo        float64 `json:"adaptive_bracket_lo_seconds"`
	AdaptiveHi        float64 `json:"adaptive_bracket_hi_seconds"`
	AdaptiveSeparated bool    `json:"adaptive_separated"`
	AdaptiveSeconds   float64 `json:"adaptive_seconds"`
	TrialsRatio       float64 `json:"trials_ratio_x"`
}

// Output is the BENCH_sim.json schema.
type Output struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Micro       []Bench            `json:"micro"`
	Macro       []Macro            `json:"macro"`
	Explore     *ExploreBench      `json:"explore_crossover,omitempty"`
	Baseline    []Bench            `json:"baseline"`
	Speedup     map[string]Speedup `json:"speedup_vs_baseline"`
}

// baseline is the coalesced-collective substrate (PR 9), measured with
// that revision's own bench tool on the machine that pinned this baseline
// (Xeon 2.10GHz, go1.24, GOMAXPROCS=1) — all five micros pinned, so the
// slab-pooled allocation work and message recycling on top of it stay an
// observable, regression-checked fact. Cross-machine ns/op comparisons are
// meaningless at gate precision, so a re-pin always re-measures the old
// revision on the current machine. (The PR-8 goroutine-per-collective
// substrate, the previous pin, measured 3189 ns/op mpi-pingpong and
// 475035 ns/op allreduce-64 on its 2.70GHz box; the PR-4 closure-per-event
// engine before it, 58.40 ns/op engine-events.)
var baseline = []Bench{
	{Name: "engine-events", NsPerOp: 16.333620253717108, AllocsPerOp: 0, BytesPerOp: 0, OpsPerSec: 1e9 / 16.333620253717108},
	{Name: "mpi-pingpong", NsPerOp: 1580.8344411265762, AllocsPerOp: 4, BytesPerOp: 2208, OpsPerSec: 1e9 / 1580.8344411265762},
	{Name: "allreduce-64", NsPerOp: 53786.790050699834, AllocsPerOp: 0, BytesPerOp: 35, OpsPerSec: 1e9 / 53786.790050699834},
	{Name: "allreduce-512", NsPerOp: 958276.7407407408, AllocsPerOp: 34, BytesPerOp: 6110, OpsPerSec: 1e9 / 958276.7407407408},
	{Name: "pooled-sweep", NsPerOp: 7.292635525e+07, AllocsPerOp: 18251, BytesPerOp: 64471987, OpsPerSec: 1e9 / 7.292635525e+07},
}

func toBench(name string, r testing.BenchmarkResult) Bench {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return Bench{
		Name:        name,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		OpsPerSec:   1e9 / ns,
	}
}

// benchEngineEvents measures raw event throughput: a single self-
// rescheduling event chain, the engine's absolute hot path.
func benchEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	b.ResetTimer()
	e.After(1, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchPingPong measures one simulated send+recv round trip between two
// ranks sharing a node. Received messages are recycled, the steady-state
// discipline of a well-behaved consumer, so the round is allocation-free
// beyond amortized pool slab refills.
func benchPingPong(b *testing.B) {
	b.ReportAllocs()
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 1)
	w := mpi.NewWorld(e, net, 2, perf.Grid5000, nil)
	payload := make([]float64, 128)
	w.Launch("a", 0, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			r.Send(r.World(), 1, 0, payload, nil)
			msg, err := r.Recv(r.World(), 1, 1)
			if err != nil {
				b.Error(err)
				return
			}
			w.RecycleMessage(msg)
		}
	})
	w.Launch("b", 1, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			msg, err := r.Recv(r.World(), 0, 0)
			if err != nil {
				b.Error(err)
				return
			}
			w.RecycleMessage(msg)
			r.Send(r.World(), 0, 1, payload, nil)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchAllreduce measures an n-rank simulated allreduce per op (4 ranks
// per node, the smoke-cluster density).
func benchAllreduce(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.New()
		net := simnet.New(e, simnet.InfiniBand20G, n/4)
		w := mpi.NewWorld(e, net, n, perf.Grid5000, nil)
		w.LaunchAll("p", func(r *mpi.Rank) {
			for i := 0; i < b.N; i++ {
				if _, err := r.AllreduceScalar(r.World(), mpi.OpSum, 1); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPooledSweep measures one full pass of the smoke grid through the
// pooled runner (SweepN reuses one engine + scratch across the grid's
// specs, Reset between them) — the layer this PR's engine pooling
// accelerates, as opposed to the per-collective micros above.
func benchPooledSweep(b *testing.B) {
	scs, err := smokeGrid()
	if err != nil {
		b.Fatal(err)
	}
	specs, err := experiments.SpecsFor(scs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepN(1, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// smokeGrid is the CI smoke scenario (scenarios/smoke.json) inlined so the
// tool runs from any working directory: HPCCG under all three modes on a
// small cluster.
func smokeGrid() ([]scenario.Scenario, error) {
	g := scenario.Grid{
		Apps:    []string{"hpccg"},
		Modes:   []scenario.Mode{scenario.Native, scenario.Classic, scenario.Intra},
		Procs:   []int{8},
		Degrees: []int{2},
		Iters:   3,
	}
	return g.Expand()
}

// runSweepMacro times repeated full runs of the smoke grid through the
// parallel sweep runner (fresh memo each repetition, so every scenario is
// simulated).
func runSweepMacro(reps int) (Macro, error) {
	scs, err := smokeGrid()
	if err != nil {
		return Macro{}, err
	}
	start := time.Now()
	count := 0
	for i := 0; i < reps; i++ {
		res, err := experiments.SweepScenarios(0, scs)
		if err != nil {
			return Macro{}, err
		}
		count += len(res)
	}
	el := time.Since(start).Seconds()
	return Macro{
		Name: "sweep-smoke", Units: "scenario-runs", Count: count,
		Seconds: el, RatePerSec: float64(count) / el,
	}, nil
}

// runCampaignMacro times a Monte Carlo failure campaign (GTC, classic
// replication, 8 logical ranks, exponential failures) and reports seeded
// trials per second. The rate includes the campaign's two fault-free
// reference runs, i.e. it is the end-to-end cost per trial at this trial
// count, which is what campaign wall time scales with.
func runCampaignMacro(trials int) (Macro, error) {
	ent, err := scenario.AppByName("gtc")
	if err != nil {
		return Macro{}, err
	}
	sc := campaign.Scenario{
		MTBF: sim.Seconds(0.05),
		Point: scenario.Scenario{
			Name: "bench/gtc/classic/p8",
			App:  "gtc", Config: scenario.MustRaw(ent.Paper(2, 0)),
			Mode: scenario.Classic, Logical: 8, Degree: 2,
		},
	}
	start := time.Now()
	if _, err := campaign.Run(campaign.Config{Trials: trials, Seed: 1}, []campaign.Scenario{sc}); err != nil {
		return Macro{}, err
	}
	el := time.Since(start).Seconds()
	return Macro{
		Name: "campaign-gtc-trials", Units: "trials", Count: trials,
		Seconds: el, RatePerSec: float64(trials) / el,
	}, nil
}

// runJobStreamMacro times the open-load jobstream service (the CI smoke
// workload inlined: two job classes, node failures, FCFS vs EASY crossed
// with native vs replicated jobs) and reports simulated job submissions
// per second of bench wall time — the end-to-end cost of the scheduler
// event loop plus policy decisions plus failure resolution.
func runJobStreamMacro(trials int) (Macro, error) {
	w := &scenario.Workload{
		Nodes: 16, Jobs: 40, Rates: []float64{8},
		MTBFSeconds: 10, Seed: 7,
		Mix: []scenario.JobClass{
			{Name: "hpccg-small", App: "hpccg", Config: json.RawMessage(`{"Iters": 5, "Scale": 64}`), Logical: 4, Weight: 2},
			{Name: "gtc-small", App: "gtc", Config: json.RawMessage(`{"Steps": 2, "Scale": 512}`), Logical: 2, Weight: 1},
		},
		Schedulers: []string{"fcfs", "easy"},
		Policies:   []string{"native", "replicate"},
	}
	cells := len(w.Rates) * len(w.Schedulers) * len(w.Policies) * trials
	jobs := cells * w.Jobs
	start := time.Now()
	if _, err := jobstream.Run(jobstream.Config{Trials: trials}, w); err != nil {
		return Macro{}, err
	}
	el := time.Since(start).Seconds()
	return Macro{
		Name: "jobstream-smoke", Units: "jobs", Count: jobs,
		Seconds: el, RatePerSec: float64(jobs) / el,
	}, nil
}

// exploreGrid builds the crossover pairing the explore macro measures
// (the scenarios/explore-crossover.json workload inlined so the tool runs
// from any working directory): GTC under ccr and intra replication at each
// requested per-node MTBF.
func exploreGrid(mtbfs []float64) []campaign.Scenario {
	cfg := json.RawMessage(`{"Cells": 64, "PerCell": 25, "Zones": 8, "Steps": 2, "Dt": 0.02, "Scale": 64, "ShiftFrac": 0.05, "AuxBytes": 180, "IntraCharge": true, "IntraPush": true}`)
	var scs []campaign.Scenario
	for _, m := range mtbfs {
		scs = append(scs, campaign.Scenario{
			MTBF: sim.Seconds(m),
			Point: scenario.Scenario{
				Name: fmt.Sprintf("bench/gtc/ccr/p8/mtbf%g", m),
				App:  "gtc", Config: cfg, Mode: scenario.CCR, Logical: 8,
			},
		}, campaign.Scenario{
			MTBF: sim.Seconds(m),
			Point: scenario.Scenario{
				Name: fmt.Sprintf("bench/gtc/intra/p8/d2/mtbf%g", m),
				App:  "gtc", Config: cfg, Mode: scenario.Intra, Logical: 8, Degree: 2,
			},
		})
	}
	return scs
}

// runExploreMacro races the two crossover-location strategies to the same
// resolution. The fixed side samples a dense log-spaced MTBF axis (step
// ratio r) at a uniform per-point trial count and log-interpolates, the
// campaign's rule; the adaptive side gets only the two endpoints and a
// bracket target equal to r, so its bisection must localize the crossover
// as tightly as the fixed grid's spacing. Both run the same simulator on
// the same scenario family, so trial counts are directly comparable. The
// default per-point count (100) is the explorer's own per-probe cap — the
// trials it takes to resolve the sign of the efficiency difference at a
// contested point; a fixed design cannot know in advance which points are
// contested, so it pays that count everywhere.
func runExploreMacro(perPoint int) (*ExploreBench, error) {
	const loMTBF, hiMTBF = 0.02, 0.5
	const fixedSteps = 8
	stepRatio := math.Pow(hiMTBF/loMTBF, 1.0/fixedSteps)

	mtbfs := make([]float64, fixedSteps+1)
	for i := range mtbfs {
		mtbfs[i] = loMTBF * math.Pow(stepRatio, float64(i))
	}
	fixedScs := exploreGrid(mtbfs)
	start := time.Now()
	fres, err := campaign.Run(campaign.Config{Trials: perPoint, Seed: 1}, fixedScs)
	if err != nil {
		return nil, fmt.Errorf("explore macro, fixed grid: %w", err)
	}
	fixedSecs := time.Since(start).Seconds()
	if len(fres.Crossovers) != 1 || fres.Crossovers[0].MeasuredNodeMTBFSeconds == 0 {
		return nil, fmt.Errorf("explore macro: fixed grid found no crossover (%+v)", fres.Crossovers)
	}

	// Generous budget: the adaptive run stops on its own convergence
	// criteria (target CI met, bracket ratio met), and what it actually
	// spent is the measurement.
	start = time.Now()
	ares, err := explore.Run(explore.Config{
		Budget: len(fixedScs) * perPoint, TargetCI: 0.1,
		BracketRatio: stepRatio, TauTraces: 2, Seed: 1,
	}, exploreGrid([]float64{loMTBF, hiMTBF}))
	if err != nil {
		return nil, fmt.Errorf("explore macro, adaptive: %w", err)
	}
	adaptiveSecs := time.Since(start).Seconds()
	if len(ares.Crossovers) != 1 {
		return nil, fmt.Errorf("explore macro: adaptive run found no crossover")
	}
	ax := ares.Crossovers[0]
	if ax.MeasuredNodeMTBFSeconds == 0 {
		return nil, fmt.Errorf("explore macro: adaptive run found no bracket to bisect")
	}
	// The two estimators must agree to within two fixed-grid steps —
	// otherwise the trial comparison below compares different answers.
	fx, am := fres.Crossovers[0].MeasuredNodeMTBFSeconds, ax.MeasuredNodeMTBFSeconds
	if r := math.Max(fx, am) / math.Min(fx, am); r > stepRatio*stepRatio {
		return nil, fmt.Errorf("explore macro: estimates disagree: fixed %.4g vs adaptive %.4g (%.2fx apart)", fx, am, r)
	}

	fixedTrials := len(fixedScs) * perPoint
	adaptiveTrials := ares.SpentRefine + ares.SpentBisect
	return &ExploreBench{
		FixedPoints:       len(fixedScs),
		FixedTrials:       fixedTrials,
		FixedStepRatio:    stepRatio,
		FixedCrossover:    fres.Crossovers[0].MeasuredNodeMTBFSeconds,
		FixedSeconds:      fixedSecs,
		AdaptiveTrials:    adaptiveTrials,
		AdaptiveCross:     ax.MeasuredNodeMTBFSeconds,
		AdaptiveLo:        ax.BracketLoSeconds,
		AdaptiveHi:        ax.BracketHiSeconds,
		AdaptiveSeparated: ax.Separated,
		AdaptiveSeconds:   adaptiveSecs,
		TrialsRatio:       float64(fixedTrials) / float64(adaptiveTrials),
	}, nil
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output JSON path")
	reps := flag.Int("sweep-reps", 3, "repetitions of the smoke-grid sweep macro benchmark")
	trials := flag.Int("trials", 1000, "seeded trials for the campaign macro benchmark (1000 amortizes the reference runs)")
	jsTrials := flag.Int("jobstream-trials", 5, "seeded trials per cell for the jobstream macro benchmark")
	expTrials := flag.Int("explore-trials", 100, "fixed-grid trials per point in the explore-crossover macro (100 = the explorer's per-probe resolution cap)")
	minSpeedup := flag.Float64("min-speedup", 0, "exit nonzero if any speedup_vs_baseline throughput falls below this, or if the explore-crossover trials ratio falls below 3 (0 disables)")
	flag.Parse()

	micro := []Bench{
		toBench("engine-events", testing.Benchmark(benchEngineEvents)),
		toBench("mpi-pingpong", testing.Benchmark(benchPingPong)),
		toBench("allreduce-64", testing.Benchmark(benchAllreduce(64))),
		toBench("allreduce-512", testing.Benchmark(benchAllreduce(512))),
		toBench("pooled-sweep", testing.Benchmark(benchPooledSweep)),
	}
	speedup := make(map[string]Speedup, len(baseline))
	for _, base := range baseline {
		for _, cur := range micro {
			if cur.Name != base.Name {
				continue
			}
			speedup[cur.Name] = Speedup{
				Throughput:  base.NsPerOp / cur.NsPerOp,
				AllocsRatio: float64(base.AllocsPerOp+1) / float64(cur.AllocsPerOp+1),
			}
		}
	}

	var macro []Macro
	for _, run := range []func() (Macro, error){
		func() (Macro, error) { return runSweepMacro(*reps) },
		func() (Macro, error) { return runCampaignMacro(*trials) },
		func() (Macro, error) { return runJobStreamMacro(*jsTrials) },
	} {
		m, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		macro = append(macro, m)
	}

	exp, err := runExploreMacro(*expTrials)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	o := Output{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Micro:       micro,
		Macro:       macro,
		Explore:     exp,
		Baseline:    baseline,
		Speedup:     speedup,
	}
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	for _, m := range micro {
		if s, ok := speedup[m.Name]; ok {
			fmt.Printf("%-16s %10.1f ns/op %6d allocs/op %8d B/op  (%.2fx vs baseline)\n",
				m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, s.Throughput)
		} else {
			fmt.Printf("%-16s %10.1f ns/op %6d allocs/op %8d B/op  (no baseline)\n",
				m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		}
	}
	for _, m := range macro {
		fmt.Printf("%-20s %6d %s in %.2fs = %.1f/s\n", m.Name, m.Count, m.Units, m.Seconds, m.RatePerSec)
	}
	fmt.Printf("explore-crossover    fixed %d trials -> %.3gs, adaptive %d trials -> %.3gs (%.1fx fewer trials)\n",
		exp.FixedTrials, exp.FixedCrossover, exp.AdaptiveTrials, exp.AdaptiveCross, exp.TrialsRatio)
	fmt.Printf("wrote %s\n", *out)

	if *minSpeedup > 0 {
		bad := false
		for name, s := range speedup {
			if s.Throughput < *minSpeedup {
				fmt.Fprintf(os.Stderr, "bench: %s regressed: %.3fx vs baseline < %.3fx floor\n",
					name, s.Throughput, *minSpeedup)
				bad = true
			}
		}
		// The adaptive explorer's headline claim rides the same gate: the
		// crossover must cost at most a third of the fixed grid's trials.
		if exp.TrialsRatio < 3 {
			fmt.Fprintf(os.Stderr, "bench: explore-crossover regressed: %.2fx trials ratio < 3x floor\n",
				exp.TrialsRatio)
			bad = true
		}
		if bad {
			os.Exit(1)
		}
	}
}
