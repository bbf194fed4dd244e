package explore

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// bracket is a crossover bracket on the per-node MTBF axis: the efficiency
// difference (ccr - replicated) changes sign between lo and hi.
type bracket struct {
	lo, hi      float64
	dlo, dhi    float64
	targetRatio float64
}

// probeOut is one budgeted measurement of the efficiency difference at a
// probe MTBF: the difference of means, the combined CI95 half-width, the
// trials spent, and whether the two sides' intervals separated before the
// probe's cap or the global budget cut it off.
type probeOut struct {
	diff, ci  float64
	trials    int
	separated bool
}

// probeFn measures the efficiency difference at one per-node MTBF. The
// bisection driver is abstract over it so tests can drive it with a
// synthetic curve.
type probeFn func(mtbfSeconds float64) (probeOut, error)

// bisectOut is the bisection's outcome: the final bracket, its geometric
// midpoint (the crossover estimate), and the probe log.
type bisectOut struct {
	lo, hi, mid float64
	separated   bool
	probes      []ProbePoint
	trials      int
}

// maxBisectProbes bounds the bisection loop; the bracket's log-width
// halves per separated probe, so real runs finish far earlier.
const maxBisectProbes = 32

// bisectCrossover shrinks the bracket by geometric bisection: each step
// probes the log-midpoint, keeps the half where the sign change lives, and
// stops when hi/lo meets the target ratio — or as soon as a probe fails to
// separate the two sides (more trials there would be spent on a point the
// measurement cannot distinguish, so the midpoint is already the best
// estimate the budget supports).
func bisectCrossover(br bracket, probe probeFn) (bisectOut, error) {
	out := bisectOut{lo: br.lo, hi: br.hi, separated: true}
	for i := 0; out.hi/out.lo > br.targetRatio && i < maxBisectProbes; i++ {
		mid := math.Sqrt(out.lo * out.hi)
		p, err := probe(mid)
		if err != nil {
			return out, err
		}
		out.trials += p.trials
		out.probes = append(out.probes, ProbePoint{
			NodeMTBFSeconds: mid, EffDiff: p.diff, EffDiffCI95: p.ci,
			Trials: p.trials, Separated: p.separated,
		})
		if !p.separated {
			out.separated = false
			out.mid = mid
			return out, nil
		}
		if p.diff == 0 {
			out.lo, out.hi = mid, mid
			break
		}
		if (p.diff < 0) == (br.dlo < 0) {
			out.lo = mid
		} else {
			out.hi = mid
		}
	}
	out.mid = math.Sqrt(out.lo * out.hi)
	return out, nil
}

// maxProbeBatches caps one probe's per-side spending at this many rounds —
// past that, the difference at the midpoint is below the resolving power
// the round size affords and the probe reports unseparated.
const maxProbeBatches = 10

// bisect runs the geometric bisection for one series pair (represented by
// the first cell of each series), probing with budgeted mini-campaigns at
// dynamically chosen MTBFs.
func (e *explorer) bisect(br bracket, ccr, repl *campaign.Tally) (bisectOut, error) {
	return bisectCrossover(br, func(mtbf float64) (probeOut, error) {
		return e.probePair(ccr, repl, mtbf)
	})
}

// probePair measures the efficiency difference (ccr - replicated) at one
// per-node MTBF: it prepares the pair's two scenarios at that MTBF (the
// fault-free references are shared with the grid, so they hit the memo or
// the store, and the replicated side reuses its grid point's trace
// recording), then alternates round-sized batches per side until the CI95
// intervals separate, the per-probe cap is reached, or the budget runs dry.
// Probe cells are retained: their aggregates persist like grid cells', and
// a re-run bisecting the same bracket rebuilds them warm.
func (e *explorer) probePair(ccr, repl *campaign.Tally, mtbf float64) (probeOut, error) {
	scs := make([]campaign.Scenario, 2)
	for i, src := range []*campaign.Tally{ccr, repl} {
		sc := src.Point.Scenario
		sc.Point.Name = fmt.Sprintf("%s@mtbf=%.9g", sc.Point.Name, mtbf)
		sc.MTBF = sim.Seconds(mtbf)
		scs[i] = sc
	}
	pts, err := campaign.PreparePoints(e.cfg.campaignConfig(), scs, repl.Point)
	if err != nil {
		return probeOut{}, fmt.Errorf("explore probe (mtbf %.9g): %w", mtbf, err)
	}
	cc := &campaign.Tally{Point: pts[0]}
	rc := &campaign.Tally{Point: pts[1]}
	e.probes = append(e.probes, cc, rc)

	out := probeOut{}
	for {
		dc, dr := cc.Aggs[2].Stat(), rc.Aggs[2].Stat()
		if cc.N >= 2 && rc.N >= 2 && !math.IsNaN(dc.CI95) && !math.IsNaN(dr.CI95) {
			out.diff = dc.Mean - dr.Mean
			out.ci = dc.CI95 + dr.CI95
			if math.Abs(out.diff) > out.ci {
				out.separated = true
				return out, nil
			}
		}
		if cc.N >= maxProbeBatches*e.cfg.Round {
			return out, nil
		}
		ac, ar := e.take(e.cfg.Round), e.take(e.cfg.Round)
		if ac == 0 && ar == 0 {
			return out, nil
		}
		e.spentBisect += ac + ar
		out.trials += ac + ar
		if err := campaign.RunTrials(e.cfg.Workers, e.cfg.Store, []*campaign.Tally{cc, rc}, []int{ac, ar}); err != nil {
			return out, fmt.Errorf("explore probe (mtbf %.9g): %w", mtbf, err)
		}
	}
}
