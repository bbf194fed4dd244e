package explore

import (
	"fmt"

	"repro/internal/experiments"
)

// Table renders the exploration: one row per explored point (grid first,
// then bisection probes) with its adaptively sized trial count and
// achieved relative CI, with the crossover brackets and tau searches as
// footnotes.
func (r *Result) Table() *experiments.Table {
	t := &experiments.Table{
		ID: "explore",
		Title: fmt.Sprintf("Adaptive exploration (budget %d, spent %d: refine %d + bisect %d + tau %d, %d rounds)",
			r.Budget, r.Spent, r.SpentRefine, r.SpentBisect, r.SpentTau, r.Rounds),
		Header: []string{"scenario", "mode", "d", "MTBF (s)", "trials",
			"makespan (s)", "±95%", "eff", "±95%", "relCI", "model"},
	}
	addPoint := func(p PointResult) {
		rel := "-"
		if p.RelCI != nil {
			rel = fmt.Sprintf("%.3f", *p.RelCI)
		}
		t.AddRow(p.Scenario, p.Mode, fmt.Sprintf("%d", p.Degree),
			fmt.Sprintf("%.3g", p.NodeMTBFSeconds),
			fmt.Sprintf("%d", p.Trials),
			fmt.Sprintf("%.3f", p.Makespan.Mean), p.Makespan.FormatCI(4),
			fmt.Sprintf("%.3f", p.Efficiency.Mean), p.Efficiency.FormatCI(4),
			rel,
			fmt.Sprintf("%.3f", p.AnalyticEff),
		)
	}
	for _, p := range r.Points {
		addPoint(p)
	}
	for _, p := range r.Probes {
		addPoint(p)
	}
	t.Note("trials are allocated adaptively: each round's batches go to the points with the widest relative CI95 (target %.3g); probe rows are the crossover bisection's dynamically chosen points", r.TargetCI)
	for _, x := range r.Crossovers {
		switch {
		case x.MeasuredNodeMTBFSeconds == 0:
			t.Note("ccr vs %s d%d (p%d): no crossover inside the sampled MTBF grid; analytic predicts %.3g s",
				x.ReplMode, x.Degree, x.CCRPhysProcs, x.AnalyticNodeMTBFSeconds)
		case x.Separated:
			t.Note("ccr vs %s d%d (p%d): crossover bisected to node MTBF %.3g s (bracket [%.3g, %.3g], ratio %.2f, %d probe trials); grid interpolation said %.3g s, analytic %.3g s",
				x.ReplMode, x.Degree, x.CCRPhysProcs, x.MeasuredNodeMTBFSeconds,
				x.BracketLoSeconds, x.BracketHiSeconds, x.BracketRatio, x.Trials,
				x.GridNodeMTBFSeconds, x.AnalyticNodeMTBFSeconds)
		default:
			t.Note("ccr vs %s d%d (p%d): bisection stopped unseparated at node MTBF %.3g s (bracket [%.3g, %.3g], %d probe trials) — the curves are statistically indistinguishable there at this budget",
				x.ReplMode, x.Degree, x.CCRPhysProcs, x.MeasuredNodeMTBFSeconds,
				x.BracketLoSeconds, x.BracketHiSeconds, x.Trials)
		}
	}
	for _, ts := range r.Tau {
		if ts.Trials == 0 {
			t.Note("tau search %s: budget exhausted before any evaluation; Daly predicts %.4g s (eff %.3f)",
				ts.Scenario, ts.AnalyticTau, ts.AnalyticBestEff)
			continue
		}
		t.Note("tau search %s: measured optimum %.4g s (eff %.3f, %d evals x %d traces) vs Daly %.4g s (eff %.3f); replays ran at %.4g s",
			ts.Scenario, ts.MeasuredTau, ts.MeasuredEff, ts.Evals, ts.TracesPerEval,
			ts.AnalyticTau, ts.AnalyticBestEff, ts.ReplayTau)
	}
	return t
}
