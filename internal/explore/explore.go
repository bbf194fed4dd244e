// Package explore is the adaptive campaign driver: it spends one global
// trial budget where statistical uncertainty is highest instead of
// spreading a fixed grid's identical batches over settled and contested
// points alike.
//
// Three engines share the budget, in deterministic order:
//
//  1. CI-width-driven refinement runs trials in fixed-size batches per
//     scenario point; after each round the next batches go to the points
//     with the widest relative CI95 on efficiency/makespan, until every
//     point meets the target or the budget runs out.
//  2. Measured-crossover bisection replaces the fixed grid's
//     log-interpolation: it bisects the per-node MTBF axis between a
//     measured replication series and a measured cCR series, each probe a
//     budgeted mini-campaign that stops as soon as the two efficiency
//     CI95s separate, until the bracket is narrower than the configured
//     ratio.
//  3. Optimal-tau search golden-sections the checkpoint interval of each
//     ccr grid point over microsecond-cheap ckptsim.Replay evaluations on
//     a common set of seeded failure traces, cross-checked against
//     ckpt.OptimalInterval.
//
// Determinism is the load-bearing property. Every point's trial stream is
// seeded from its content fingerprint (campaign.PointSeed), not its grid
// position, and trial indices are consumed in stable ascending blocks — so
// an adaptive run's per-point aggregate is a byte-identical
// prefix-extension of any fixed run over the same indices, the output is
// identical at any worker count, and a store-backed re-run is fully warm
// (misses=0) even for probe points the original grid never named.
package explore

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config are the explorer-wide knobs.
type Config struct {
	// Budget is the global number of trials the three engines may spend
	// (replicated simulations, ccr replays and tau-search replays all
	// count one each). Default 4000.
	Budget int
	// Round is the per-point batch size of one allocation round (and of
	// one bisection probe step per side). Default 10, minimum 2 — a CI
	// needs two samples.
	Round int
	// TargetCI is the refinement goal: the widest acceptable relative
	// CI95 (half-width / |mean|) on a point's efficiency and makespan.
	// Default 0.05.
	TargetCI float64
	// BracketRatio is where bisection stops: the final crossover bracket
	// satisfies hi/lo <= BracketRatio. Default 1.5.
	BracketRatio float64
	// TauTraces is the number of common seeded failure traces behind each
	// optimal-tau objective evaluation. Default 24.
	TauTraces int

	Seed    int64
	Workers int

	// Horizon, CkptDelta, CkptRestart, CkptTau have campaign.Config
	// semantics and flow through unchanged.
	Horizon     sim.Time
	CkptDelta   float64
	CkptRestart float64
	CkptTau     float64

	// Store, when non-nil, backs every simulation with the persistent
	// result cache and persists per-cell aggregates, bisection outcomes
	// and tau results as content-keyed records. Records already present
	// are byte-compared against the recomputation — a mismatch means
	// nondeterminism or corruption and fails the run.
	Store *store.Store
}

func (cfg Config) withDefaults() Config {
	if cfg.Budget <= 0 {
		cfg.Budget = 4000
	}
	if cfg.Round <= 0 {
		cfg.Round = 10
	}
	if cfg.Round < 2 {
		cfg.Round = 2
	}
	if cfg.TargetCI <= 0 {
		cfg.TargetCI = 0.05
	}
	if cfg.BracketRatio <= 1 {
		cfg.BracketRatio = 1.5
	}
	if cfg.TauTraces <= 0 {
		cfg.TauTraces = 24
	}
	return cfg
}

// campaignConfig maps the shared knobs onto the campaign layer.
func (cfg Config) campaignConfig() campaign.Config {
	return campaign.Config{
		Seed: cfg.Seed, Workers: cfg.Workers, Horizon: cfg.Horizon,
		CkptDelta: cfg.CkptDelta, CkptRestart: cfg.CkptRestart, CkptTau: cfg.CkptTau,
		Store: cfg.Store,
	}
}

// relCI is an explored point's uncertainty measure: the wider of the
// relative CI95s on makespan and efficiency (+Inf below two trials or at
// zero mean).
func relCI(c *campaign.Tally) float64 {
	if c.N < 2 {
		return math.Inf(1)
	}
	r := relOf(c.Aggs[0].Stat())
	if e := relOf(c.Aggs[2].Stat()); e > r {
		r = e
	}
	return r
}

func relOf(s campaign.Stat) float64 {
	if math.IsNaN(s.CI95) || s.Mean == 0 {
		return math.Inf(1)
	}
	return s.CI95 / math.Abs(s.Mean)
}

// explorer runs one exploration. Each explored point is a cell: a
// campaign.Tally over the trial prefix consumed so far.
type explorer struct {
	cfg    Config
	cells  []*campaign.Tally // grid cells, input order
	probes []*campaign.Tally // bisection probe cells, creation order
	rounds int

	spent       int
	spentRefine int
	spentBisect int
	spentTau    int

	crossovers []CrossoverResult
	tau        []TauResult
	verified   int // store records byte-verified against a previous run
}

// take grants up to n trials from the remaining budget.
func (e *explorer) take(n int) int {
	if left := e.cfg.Budget - e.spent; n > left {
		n = left
	}
	if n < 0 {
		n = 0
	}
	e.spent += n
	return n
}

// tryTake grants exactly n trials or none.
func (e *explorer) tryTake(n int) bool {
	if e.cfg.Budget-e.spent < n {
		return false
	}
	e.spent += n
	return true
}

// Run executes the adaptive campaign over the scenario grid.
func Run(cfg Config, scenarios []campaign.Scenario) (*Result, error) {
	cfg = cfg.withDefaults()
	points, err := campaign.PreparePoints(cfg.campaignConfig(), scenarios)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	e := &explorer{cfg: cfg}
	for _, p := range points {
		e.cells = append(e.cells, &campaign.Tally{Point: p})
	}
	if err := e.refine(); err != nil {
		return nil, err
	}
	if err := e.bisectCrossovers(); err != nil {
		return nil, err
	}
	e.tauSearch()
	experiments.Progress.SetStatus(fmt.Sprintf("explore: done, budget %d/%d", e.spent, cfg.Budget))
	res := e.result()
	if cfg.Store != nil {
		if err := e.persist(res); err != nil {
			return nil, err
		}
		res.storeVerified = e.verified
	}
	return res, nil
}

// refine is engine 1: rounds of fixed-size batches, each round allocated
// to the points with the widest relative CI95, widest first, until every
// point meets TargetCI or the budget is gone.
func (e *explorer) refine() error {
	for {
		// Candidates still above target, widest first; ties keep grid
		// order (sort stability), and fresh cells (+Inf) lead round one.
		var cand []int
		for i, c := range e.cells {
			if relCI(c) > e.cfg.TargetCI {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			break
		}
		sort.SliceStable(cand, func(a, b int) bool {
			return relCI(e.cells[cand[a]]) > relCI(e.cells[cand[b]])
		})
		allocs := make([]int, len(e.cells))
		total := 0
		for _, ci := range cand {
			a := e.take(e.cfg.Round)
			if a == 0 {
				break
			}
			allocs[ci] = a
			total += a
		}
		if total == 0 {
			break // budget exhausted
		}
		e.rounds++
		e.spentRefine += total
		widest := e.cells[cand[0]]
		experiments.Progress.SetStatus(fmt.Sprintf(
			"explore: round %d, budget %d/%d, widest %s relCI %.3g",
			e.rounds, e.spent, e.cfg.Budget, widest.Point.Scenario.Point.Name, relCI(widest)))
		if err := campaign.RunTrials(e.cfg.Workers, e.cfg.Store, e.cells, allocs); err != nil {
			return fmt.Errorf("explore: %w", err)
		}
	}
	return nil
}

// bisectCrossovers is engine 2: pair each measured ccr series with the
// replicated series sharing its native baseline, bracket the efficiency
// crossover on the refined grid, then bisect the per-node MTBF axis with
// budgeted CI-separated probes until the bracket ratio meets the target.
func (e *explorer) bisectCrossovers() error {
	pts := make([]*campaign.Point, len(e.cells))
	for i, c := range e.cells {
		pts[i] = c.Point
	}
	eff := func(i int) float64 { return e.cells[i].Aggs[2].Stat().Mean }
	for _, sp := range campaign.PairSeries(pts) {
		repl, ccr := e.cells[sp.Repl[0]], e.cells[sp.CCR[0]]
		rp, cp := repl.Point, ccr.Point
		x := CrossoverResult{
			App:          rp.Scenario.Point.App,
			ReplMode:     rp.Scenario.Point.Mode.String(),
			Logical:      rp.Scenario.Point.Logical,
			Degree:       rp.Scenario.Point.EffectiveDegree(),
			CCRPhysProcs: cp.PhysProcs,
		}
		x.AnalyticNodeMTBFSeconds = ckpt.CrossoverMTBF(
			cp.Params.Delta, cp.Params.Restart, rp.FFEff) * float64(cp.PhysProcs)

		// The shared refined axis: the fixed grid's log-interpolation is
		// kept in the output for comparison with the bisection.
		axis := sp.Axis(pts, eff)
		x.GridNodeMTBFSeconds = campaign.LogCrossover(axis)

		// First adjacent sign change brackets the crossover.
		bi := -1
		for i := 1; i < len(axis); i++ {
			if (axis[i-1].Diff < 0) != (axis[i].Diff < 0) {
				bi = i
				break
			}
		}
		if bi < 0 {
			e.crossovers = append(e.crossovers, x)
			continue
		}
		lo, hi := axis[bi-1], axis[bi]
		out, err := e.bisect(bracket{
			lo: lo.MTBF, hi: hi.MTBF, dlo: lo.Diff, dhi: hi.Diff,
			targetRatio: e.cfg.BracketRatio,
		}, ccr, repl)
		if err != nil {
			return err
		}
		x.BracketLoSeconds, x.BracketHiSeconds = out.lo, out.hi
		x.BracketRatio = out.hi / out.lo
		x.MeasuredNodeMTBFSeconds = out.mid
		x.Separated = out.separated
		x.Probes = out.probes
		x.Trials = out.trials
		e.crossovers = append(e.crossovers, x)
	}
	return nil
}
