package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/ckptsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// Point is one prepared scenario point of a campaign: the fault-free
// references are measured, the cCR machine parameters and the failure
// window are resolved, and trials are exposed one index at a time. Run and
// the adaptive explorer both draw their trials from it.
//
// A Point's trial stream is seeded from the scenario's content
// fingerprint, not its position in any grid. Any driver that reaches the
// same point — a fixed campaign, whatever subset, ordering or dynamically
// chosen probe got it there — draws the identical trials, so adaptive
// aggregates are a prefix-extension of a fixed run's and warm store hits
// line up across campaigns that never saw each other's grids.
type Point struct {
	Scenario  Scenario
	PhysProcs int

	// NativeWall is the unreplicated reference wall time in seconds;
	// FFWall / FFEff the scenario mode's fault-free wall time (checkpoints
	// included for ccr) and resource-normalized efficiency.
	NativeWall float64
	FFWall     float64
	FFEff      float64

	// Params is the resolved cCR machine (ccr points only); Delta and
	// Restart are the analytic comparison's checkpoint parameters (the
	// machine's own for ccr points; Config's, defaulted from the
	// fault-free wall time, for replicated points).
	Params  ckptsim.Params
	Delta   float64
	Restart float64
	// Horizon is the crash-draw window. Grow marks the defaulted ccr
	// window, which trials extend to the last window doubling it would
	// reach (see ccrTrial), so that it covers the failure-stretched
	// makespan of every point that is not stalled.
	Horizon sim.Time
	Grow    bool
	// Seed is the fingerprint-derived trial-stream seed: trial t draws
	// with fault.TrialSeed(Seed, 0, t); auxiliary streams (the optimal-tau
	// search's common random traces) use stream indices >= 1.
	Seed int64

	fp       string // scenario fingerprint (see scenarioFingerprint)
	nativeFP string
	template experiments.Spec
	replay   *core.TraceSet // the recording crashed trials replay
	recKey   string         // its experiments.RecordingKey
}

// PointSeed derives the trial-stream seed of one scenario from the master
// seed and the scenario's content fingerprint. It is independent of grid
// position, so two drivers exploring overlapping scenario sets draw
// identical trial streams for the shared points.
func PointSeed(master int64, scenarioFP string) int64 {
	sum := sha256.Sum256([]byte(scenarioFP))
	h := int64(binary.LittleEndian.Uint64(sum[:8]))
	return fault.TrialSeed(master^h, 0, 0)
}

// PreparePoints measures the fault-free references of the scenarios (one
// sweep, memo- and store-backed) and returns one prepared Point per
// scenario, in input order.
//
// Every replicated point's crashed trials replay the recorded traces of
// its logical program (experiments.RecordTraces) instead of executing the
// application, whatever its engine, so full execution is left to the
// fault-free references and the recordings. Points whose programs share a
// recording (experiments.RecordingKey: one application, logical size,
// degree and platform, classic or intra) share one recording run, and so
// do the new points and any already prepared points passed in from:
// explore's bisection probes reuse the recording of the grid point they
// derive from.
func PreparePoints(cfg Config, scenarios []Scenario, from ...*Point) ([]*Point, error) {
	base, templates, err := planReferences(cfg, scenarios)
	if err != nil {
		return nil, err
	}
	recordings := map[string]*core.TraceSet{}
	for _, p := range from {
		if p.replay != nil {
			recordings[p.recKey] = p.replay
		}
	}
	baseRes, err := experiments.SweepStore(cfg.Workers, cfg.Store, base)
	if err != nil {
		return nil, fmt.Errorf("campaign references: %w", err)
	}
	pts := make([]*Point, len(scenarios))
	for i, sc := range scenarios {
		native, ff := baseRes[2*i], baseRes[2*i+1]
		p := &Point{
			Scenario:   sc,
			PhysProcs:  ff.PhysProcs,
			NativeWall: native.Measure.Wall.Seconds(),
		}
		sfp, err := scenarioFingerprint(sc)
		if err != nil {
			return nil, err
		}
		p.fp = sfp
		nfp, err := sc.nativeScenario().Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		p.nativeFP = nfp
		p.Seed = PointSeed(cfg.Seed, sfp)

		// An explicitly configured horizon is a hard cap on the failure
		// window for every fault-tolerance side; only the defaulted ccr
		// window grows with the makespan (see ccrTrial).
		horizon := sc.Horizon
		if horizon == 0 {
			horizon = cfg.Horizon
		}
		if sc.Point.Mode == scenario.CCR {
			w := p.NativeWall
			p.Params = cfg.ckptParams(sc, w, sc.MTBF.Seconds()/float64(sc.Point.Logical))
			if err := p.Params.Validate(); err != nil {
				return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Point.Name, err)
			}
			p.FFWall = p.Params.FaultFreeMakespan(w)
			p.FFEff = w / p.FFWall * experiments.Efficiency(native.Measure, ff.Measure)
			p.Delta, p.Restart = p.Params.Delta, p.Params.Restart
			if horizon == 0 {
				horizon = sim.Seconds(p.FFWall)
				p.Grow = true
			}
		} else {
			p.FFWall = ff.Measure.Wall.Seconds()
			p.FFEff = experiments.Efficiency(native.Measure, ff.Measure)
			p.Delta = cfg.CkptDelta
			if p.Delta <= 0 {
				p.Delta = 0.05 * p.FFWall
			}
			p.Restart = cfg.CkptRestart
			if p.Restart <= 0 {
				p.Restart = p.Delta
			}
			if horizon == 0 {
				horizon = ff.Measure.Wall
			}
			p.template = templates[i]
			if p.recKey, err = experiments.RecordingKey(p.template); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
			if p.replay = recordings[p.recKey]; p.replay == nil {
				if p.replay, err = experiments.RecordTraces(p.template); err != nil {
					return nil, fmt.Errorf("campaign: scenario %q: trace recording: %w", sc.Point.Name, err)
				}
				recordings[p.recKey] = p.replay
			}
		}
		p.Horizon = horizon
		pts[i] = p
	}
	return pts, nil
}

// IsCCR reports whether trials replay under ckptsim instead of simulating
// replicated executions.
func (p *Point) IsCCR() bool { return p.Scenario.Point.Mode == scenario.CCR }

// Fingerprint is the canonical identity of the point (scenario + native
// reference + MTBF + horizon), the basis of its seed and store keys.
func (p *Point) Fingerprint() string { return p.fp }

// TrialSpec lays out replicated trial t as a sweep spec (panics on ccr
// points, which have no replicated execution). The draw is returned for
// crash accounting. A trial replays the point's recorded traces, on the
// classic or the intra engine, only when its draw crashes something, like
// jobstream's replicated jobs; a fault-free one is the executed reference
// the point already measured.
func (p *Point) TrialSpec(t int) (experiments.Spec, fault.Draw) {
	if p.IsCCR() {
		panic("campaign: TrialSpec on a ccr point")
	}
	sc := p.Scenario
	d := fault.ExponentialDraw(sc.Point.Logical, sc.Point.EffectiveDegree(), sc.MTBF, p.Horizon,
		fault.TrialSeed(p.Seed, 0, t))
	spec := p.template
	spec.Name = fmt.Sprintf("%s/x%04d", sc.Point.Name, t)
	spec.Fault = d.Schedule
	if len(d.Schedule.Crashes) > 0 {
		spec.Replay = p.replay
	}
	return spec, d
}

// CCRTrial replays ccr trial t (panics on replicated points).
func (p *Point) CCRTrial(t int) ckptsim.Trial {
	if !p.IsCCR() {
		panic("campaign: CCRTrial on a replicated point")
	}
	sc := p.Scenario
	return ccrTrial(p.NativeWall, p.Params, sc.Point.Logical, sc.MTBF, p.Horizon, p.Grow,
		fault.TrialSeed(p.Seed, 0, t))
}

// ReplayTrace replays auxiliary failure-trace stream `stream` >= 1, index
// k, for the point's system — the optimal-tau search's common random
// numbers. The trace is extended from the point's horizon like a
// defaulted ccr window, whatever the point's own horizon, and pulled only
// as far as the replay at the given params consumes it; every candidate
// interval replays a prefix of the same trace.
func (p *Point) ReplayTrace(stream, k int, params ckptsim.Params) ckptsim.Trial {
	if !p.IsCCR() {
		panic("campaign: ReplayTrace on a replicated point")
	}
	sc := p.Scenario
	return ccrTrial(p.NativeWall, params, sc.Point.Logical, sc.MTBF, p.Horizon, true,
		fault.TrialSeed(p.Seed, stream, k))
}

// Metrics converts one trial's wall time into the campaign's metric triple.
func (p *Point) Metrics(wall float64) (makespan, slowdown, eff float64) {
	slowdown = wall / p.FFWall
	return wall, slowdown, p.FFEff / slowdown
}

// SysMTBF is the MTBF of the unreplicated system on the point's node
// count — the axis Daly's model and the crossover are expressed in.
func (p *Point) SysMTBF() float64 {
	return p.Scenario.MTBF.Seconds() / float64(p.PhysProcs)
}

// AnalyticEfficiency evaluates the §II model at the point's operating
// point: Daly's cCR efficiency for ccr points (at the interval the replays
// run), the Ferreira-style replicated efficiency otherwise.
func (p *Point) AnalyticEfficiency() float64 {
	if p.IsCCR() {
		return ckpt.Efficiency(p.Params.Tau, p.Params.Delta, p.Params.Restart, p.SysMTBF())
	}
	return ckpt.ReplicatedEfficiency(p.FFEff, p.Scenario.Point.Logical, p.Scenario.MTBF.Seconds(), p.Delta, p.Restart)
}

// Tally is one point's running trial aggregate: trials [0, N) of the
// point's stream, folded in ascending index order. Drivers that fold the
// same prefix — a fixed campaign, an adaptive allocation, however it was
// split into rounds — hold byte-identical aggregates.
type Tally struct {
	Point    *Point
	N        int
	Aggs     [3]Agg     // makespan, slowdown, efficiency
	Crashes  CrashStats // MeanPerTrial left to the reporter
	MemoHits int        // replicated trials the sweep memo served
}

// fold adds one trial with the given wall time and crash count.
func (tl *Tally) fold(wall float64, crashes int) {
	mk, sd, eff := tl.Point.Metrics(wall)
	tl.Aggs[0].Add(mk)
	tl.Aggs[1].Add(sd)
	tl.Aggs[2].Add(eff)
	tl.N++
	cs := &tl.Crashes
	cs.Total += crashes
	if crashes > 0 {
		cs.TrialsWithCrash++
	}
	cs.MaxPerTrial = max(cs.MaxPerTrial, crashes)
}

// RunTrials measures the next counts[i] trials of each tally's point —
// indices [N, N+counts[i]) — and folds them in, tallies in slice order and
// trial index ascending. Every replicated trial of every point goes
// through one sweep, so the pool stays saturated across points and the
// memo serves identical draws of different points; the ccr replays then
// fan out over the same worker count. Neither the fan-out nor the way a
// prefix is split into calls can change an aggregate.
func RunTrials(workers int, st *store.Store, tallies []*Tally, counts []int) error {
	return runTrials(workers, st, store.Shard{}, tallies, counts)
}

// runTrials is RunTrials folding only the trials shard sh owns: trial t
// of every point, replicated or ccr, when sh.Owns(t). Unowned trials are
// never drawn, and a sharded tally counts this shard's trials rather than
// a stream prefix.
func runTrials(workers int, st *store.Store, sh store.Shard, tallies []*Tally, counts []int) error {
	type trial struct{ tally, t, at int } // at: index into specs or replays
	var owned []trial
	var specs []experiments.Spec
	var draws []fault.Draw
	var replays []trial
	for i, tl := range tallies {
		for t := tl.N; t < tl.N+counts[i]; t++ {
			switch {
			case !sh.Owns(t):
				continue
			case tl.Point.IsCCR():
				owned = append(owned, trial{i, t, len(replays)})
				replays = append(replays, trial{tally: i, t: t})
			default:
				owned = append(owned, trial{i, t, len(specs)})
				spec, d := tl.Point.TrialSpec(t)
				specs = append(specs, spec)
				draws = append(draws, d)
			}
		}
	}
	res, err := experiments.SweepStore(workers, st, specs)
	if err != nil {
		return fmt.Errorf("campaign trials: %w", err)
	}
	ccr := make([]ckptsim.Trial, len(replays))
	experiments.ForEach(workers, len(replays), func(_ *experiments.Worker, j int) {
		ccr[j] = tallies[replays[j].tally].Point.CCRTrial(replays[j].t)
	})
	for _, tr := range owned {
		tl := tallies[tr.tally]
		if tl.Point.IsCCR() {
			tl.fold(ccr[tr.at].Makespan, ccr[tr.at].Failures)
			continue
		}
		r, d := res[tr.at], draws[tr.at]
		tl.fold(r.Measure.Wall.Seconds(), r.Crashes)
		if d.Suppressed > 0 {
			tl.Crashes.SuppressedKills += d.Suppressed
			tl.Crashes.InterruptedDraws++
		}
		if r.Memoized {
			tl.MemoHits++
		}
	}
	return nil
}
