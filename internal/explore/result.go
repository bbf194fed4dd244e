package explore

import (
	"math"

	"repro/internal/campaign"
)

// Result is the explorer's machine-readable output. Every field is a pure
// function of (config, scenario grid): no timings, memo counters or store
// traffic appear, so runs at different worker counts — and cold vs warm
// store-backed runs — marshal byte-identically.
type Result struct {
	Budget      int     `json:"budget"`
	Spent       int     `json:"spent"`
	SpentRefine int     `json:"spent_refine"`
	SpentBisect int     `json:"spent_bisect"`
	SpentTau    int     `json:"spent_tau"`
	Rounds      int     `json:"rounds"`
	TargetCI    float64 `json:"target_ci"`

	// Points are the grid cells in input order; Probes the bisection's
	// dynamically chosen cells in creation order.
	Points     []PointResult     `json:"points"`
	Probes     []PointResult     `json:"probes,omitempty"`
	Crossovers []CrossoverResult `json:"crossovers,omitempty"`
	Tau        []TauResult       `json:"tau,omitempty"`

	// storeVerified counts persisted records that already existed and were
	// byte-compared against this run's recomputation. Deliberately not
	// marshaled: it describes cache traffic, not results.
	storeVerified int
}

// StoreVerified reports how many persisted records this run re-derived and
// byte-verified against a previous run (0 on a cold store or without one).
func (r *Result) StoreVerified() int { return r.storeVerified }

// PointResult is the refined aggregate of one explored scenario point.
type PointResult struct {
	Scenario        string  `json:"scenario"`
	App             string  `json:"app"`
	Mode            string  `json:"mode"`
	Logical         int     `json:"logical"`
	Degree          int     `json:"degree"`
	PhysProcs       int     `json:"phys_procs"`
	NodeMTBFSeconds float64 `json:"node_mtbf_seconds"`

	Trials  int `json:"trials"`
	Crashes int `json:"crashes"`
	// RelCI is the refinement's uncertainty measure — the wider relative
	// CI95 of makespan and efficiency — null below two trials.
	RelCI *float64 `json:"rel_ci"`

	Makespan   campaign.Stat `json:"makespan_seconds"`
	Slowdown   campaign.Stat `json:"slowdown"`
	Efficiency campaign.Stat `json:"efficiency"`
	// AnalyticEff is the §II model prediction at the point's operating
	// point (Daly for ccr, Ferreira-style for replication).
	AnalyticEff float64 `json:"analytic_efficiency"`

	// Fingerprint is the point's content identity (basis of its seed and
	// store keys).
	Fingerprint string `json:"fingerprint"`
}

// CrossoverResult locates one ccr-vs-replication efficiency crossover on
// the per-node MTBF axis, three ways: the §II analytic prediction, the
// fixed grid's log-interpolation, and the bisection's measured bracket.
type CrossoverResult struct {
	App          string `json:"app"`
	ReplMode     string `json:"repl_mode"`
	Logical      int    `json:"logical"`
	Degree       int    `json:"degree"`
	CCRPhysProcs int    `json:"ccr_phys_procs"`

	AnalyticNodeMTBFSeconds float64 `json:"analytic_node_mtbf_seconds"`
	// GridNodeMTBFSeconds is the fixed-grid estimator (log-interpolation
	// between bracketing samples; 0 when the grid shows no sign change).
	GridNodeMTBFSeconds float64 `json:"grid_node_mtbf_seconds"`

	// Bracket and measured midpoint from the bisection; zero when the grid
	// gave no bracket to refine.
	BracketLoSeconds        float64 `json:"bracket_lo_seconds,omitempty"`
	BracketHiSeconds        float64 `json:"bracket_hi_seconds,omitempty"`
	BracketRatio            float64 `json:"bracket_ratio,omitempty"`
	MeasuredNodeMTBFSeconds float64 `json:"measured_node_mtbf_seconds,omitempty"`
	// Separated is false when a probe could not separate the two sides'
	// CIs before its cap or the budget ran dry — the measured value is
	// then the unresolved midpoint, not a CI-backed crossing.
	Separated bool         `json:"separated"`
	Probes    []ProbePoint `json:"probe_points,omitempty"`
	Trials    int          `json:"trials"`
}

// ProbePoint is one bisection probe: the efficiency difference measured at
// a dynamically chosen MTBF.
type ProbePoint struct {
	NodeMTBFSeconds float64 `json:"node_mtbf_seconds"`
	EffDiff         float64 `json:"eff_diff"`
	EffDiffCI95     float64 `json:"eff_diff_ci95"`
	Trials          int     `json:"trials"`
	Separated       bool    `json:"separated"`
}

// TauResult is the optimal-interval search outcome for one ccr point.
type TauResult struct {
	Scenario        string  `json:"scenario"`
	NodeMTBFSeconds float64 `json:"node_mtbf_seconds"`
	SysMTBFSeconds  float64 `json:"sys_mtbf_seconds"`
	Delta           float64 `json:"delta_seconds"`
	Restart         float64 `json:"restart_seconds"`

	// ReplayTau is the interval the grid replays ran at; AnalyticTau and
	// AnalyticBestEff are Daly's optimum and its predicted efficiency.
	ReplayTau       float64 `json:"replay_tau_seconds"`
	AnalyticTau     float64 `json:"analytic_tau_seconds"`
	AnalyticBestEff float64 `json:"analytic_best_efficiency"`

	// MeasuredTau minimizes the mean replayed makespan over the common
	// failure traces; MeasuredEff is the point's efficiency at that
	// interval.
	MeasuredTau      float64 `json:"measured_tau_seconds"`
	MeasuredMakespan float64 `json:"measured_makespan_seconds"`
	MeasuredEff      float64 `json:"measured_efficiency"`

	TracesPerEval int  `json:"traces_per_eval"`
	Evals         int  `json:"evals"`
	Trials        int  `json:"trials"`
	Converged     bool `json:"converged"`
}

func (e *explorer) result() *Result {
	r := &Result{
		Budget: e.cfg.Budget, Spent: e.spent,
		SpentRefine: e.spentRefine, SpentBisect: e.spentBisect, SpentTau: e.spentTau,
		Rounds: e.rounds, TargetCI: e.cfg.TargetCI,
		Crossovers: e.crossovers, Tau: e.tau,
	}
	for _, c := range e.cells {
		r.Points = append(r.Points, pointResult(c))
	}
	for _, c := range e.probes {
		r.Probes = append(r.Probes, pointResult(c))
	}
	return r
}

func pointResult(c *campaign.Tally) PointResult {
	sc := c.Point.Scenario
	pr := PointResult{
		Scenario:        sc.Point.Name,
		App:             sc.Point.App,
		Mode:            sc.Point.Mode.String(),
		Logical:         sc.Point.Logical,
		Degree:          sc.Point.EffectiveDegree(),
		PhysProcs:       c.Point.PhysProcs,
		NodeMTBFSeconds: sc.MTBF.Seconds(),
		Trials:          c.N,
		Crashes:         c.Crashes.Total,
		Makespan:        c.Aggs[0].Stat(),
		Slowdown:        c.Aggs[1].Stat(),
		Efficiency:      c.Aggs[2].Stat(),
		AnalyticEff:     c.Point.AnalyticEfficiency(),
		Fingerprint:     c.Point.Fingerprint(),
	}
	if rc := relCI(c); !math.IsInf(rc, 1) && !math.IsNaN(rc) {
		pr.RelCI = &rc
	}
	return pr
}
