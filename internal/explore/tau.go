package explore

import (
	"math"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/ckptsim"
	"repro/internal/experiments"
)

const (
	// goldenPhi is the golden-section step (1/phi), shared with
	// ckpt.OptimalInterval's analytic search.
	goldenPhi = 0.6180339887498949
	// maxTauEvals caps one cell's objective evaluations; at the default 24
	// traces per evaluation that bounds a cell's tau search near 800
	// trials.
	maxTauEvals = 32
	// tauSpan brackets the measured search at analyticTau/8 .. 8x — three
	// octaves around Daly's optimum. The analytic search's full bracket
	// reaches intervals shorter than the checkpoint cost itself, where a
	// replay practically never completes and its cost explodes with the
	// failure count; the measured optimum is a trace-discreteness
	// perturbation of the analytic one and lives well inside this window.
	tauSpan = 8.0
	// tauLogTol stops the golden section once the bracket endpoints are
	// within 2% of each other (the search walks log(tau), so the tolerance
	// is a ratio) — tighter brackets cost evaluations without moving the
	// reported efficiency.
	tauLogTol = 0.02
)

// tauSearch is engine 3: for every ccr grid point, golden-section the
// checkpoint interval over measured Replay makespans on a common set of
// seeded failure traces (common random numbers — every candidate interval
// replays the same failures, so the comparison is paired and the objective
// is deterministic), cross-checked against Daly's analytic optimum.
func (e *explorer) tauSearch() {
	for _, c := range e.cells {
		if !c.Point.IsCCR() {
			continue
		}
		e.tau = append(e.tau, e.tauSearchCell(c.Point))
	}
}

func (e *explorer) tauSearchCell(p *campaign.Point) TauResult {
	sysMTBF := p.SysMTBF()
	res := TauResult{
		Scenario:        p.Scenario.Point.Name,
		NodeMTBFSeconds: p.Scenario.MTBF.Seconds(),
		SysMTBFSeconds:  sysMTBF,
		Delta:           p.Params.Delta,
		Restart:         p.Params.Restart,
		ReplayTau:       p.Params.Tau,
		AnalyticTau:     ckpt.OptimalInterval(p.Params.Delta, p.Params.Restart, sysMTBF),
		AnalyticBestEff: ckpt.BestEfficiency(p.Params.Delta, p.Params.Restart, sysMTBF),
		TracesPerEval:   e.cfg.TauTraces,
	}

	// Objective: mean replayed makespan at interval tau over the common
	// traces, memoized per tau. A fresh evaluation takes its traces from
	// the budget whole or not at all, so a dry budget never produces a
	// half-measured objective value.
	memo := map[float64]float64{}
	eval := func(tau float64) (float64, bool) {
		if m, ok := memo[tau]; ok {
			return m, true
		}
		if res.Evals >= maxTauEvals || !e.tryTake(e.cfg.TauTraces) {
			return 0, false
		}
		e.spentTau += e.cfg.TauTraces
		res.Evals++
		res.Trials += e.cfg.TauTraces
		params := ckptsim.Params{Tau: tau, Delta: p.Params.Delta, Restart: p.Params.Restart}
		walls := make([]float64, e.cfg.TauTraces)
		experiments.ForEach(e.cfg.Workers, len(walls), func(_ *experiments.Worker, k int) {
			walls[k] = p.ReplayTrace(1, k, params).Makespan
		})
		sum := 0.0
		for _, w := range walls {
			sum += w
		}
		m := sum / float64(len(walls))
		memo[tau] = m
		return m, true
	}

	// Golden-section log(tau) over tauSpan octaves around the analytic
	// optimum (checkpoint intervals live on a ratio scale; see tauSpan for
	// why not the analytic search's full bracket).
	if res.AnalyticTau <= 0 {
		return res // degenerate machine: nothing to search
	}
	lo := math.Log(res.AnalyticTau / tauSpan)
	hi := math.Log(res.AnalyticTau * tauSpan)
	evalLog := func(x float64) (float64, bool) { return eval(math.Exp(x)) }
	x1 := hi - goldenPhi*(hi-lo)
	x2 := lo + goldenPhi*(hi-lo)
	f1, ok1 := evalLog(x1)
	f2, ok2 := evalLog(x2)
	for ok1 && ok2 && hi-lo > tauLogTol {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - goldenPhi*(hi-lo)
			f1, ok1 = evalLog(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + goldenPhi*(hi-lo)
			f2, ok2 = evalLog(x2)
		}
	}
	res.Converged = ok1 && ok2

	// Report the best evaluated point (deterministic argmin: smallest
	// makespan, ties to the smaller tau).
	bestTau, bestMk := math.NaN(), math.Inf(1)
	for tau, mk := range memo {
		if mk < bestMk || (mk == bestMk && tau < bestTau) {
			bestTau, bestMk = tau, mk
		}
	}
	if !math.IsInf(bestMk, 1) {
		res.MeasuredTau = bestTau
		res.MeasuredMakespan = bestMk
		// FFEff*FFWall is tau-independent (native-normalized work rate), so
		// this is the point's efficiency had its replays used bestTau.
		res.MeasuredEff = p.FFEff * p.FFWall / bestMk
	}
	return res
}
