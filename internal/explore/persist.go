package explore

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/store"
)

// Store record kinds. Point aggregates live under a narrow key (trial
// streams + point identity + trial count) so any driver that consumed the
// same trial prefix of the same point produces the identical record,
// whatever budget or grid got it there; crossover and tau records bind to
// the full run (their outcomes depend on the whole budget history).
const (
	aggKind   = "explore-agg"
	xoverKind = "explore-crossover"
	tauKind   = "explore-tau"
)

// streamFingerprint canonically encodes the knobs that shape per-trial
// values (Workers and the budget knobs deliberately excluded: neither can
// change what trial t of a point measures).
func (cfg Config) streamFingerprint() string {
	b, err := json.Marshal(struct {
		Seed        int64    `json:"seed"`
		Horizon     sim.Time `json:"horizon"`
		CkptDelta   float64  `json:"ckpt_delta"`
		CkptRestart float64  `json:"ckpt_restart"`
		CkptTau     float64  `json:"ckpt_tau"`
	}{cfg.Seed, cfg.Horizon, cfg.CkptDelta, cfg.CkptRestart, cfg.CkptTau})
	if err != nil {
		panic(fmt.Sprintf("explore: fingerprint: %v", err)) // struct of scalars cannot fail
	}
	return string(b)
}

// runFingerprint additionally pins the budget knobs and the full grid —
// the identity of one complete exploration.
func (e *explorer) runFingerprint() string {
	cfg := e.cfg
	fps := make([]string, len(e.cells))
	for i, c := range e.cells {
		fps[i] = c.Point.Fingerprint()
	}
	b, err := json.Marshal(struct {
		Stream       string   `json:"stream"`
		Budget       int      `json:"budget"`
		Round        int      `json:"round"`
		TargetCI     float64  `json:"target_ci"`
		BracketRatio float64  `json:"bracket_ratio"`
		TauTraces    int      `json:"tau_traces"`
		Grid         []string `json:"grid"`
	}{cfg.streamFingerprint(), cfg.Budget, cfg.Round, cfg.TargetCI, cfg.BracketRatio, cfg.TauTraces, fps})
	if err != nil {
		panic(fmt.Sprintf("explore: fingerprint: %v", err))
	}
	return string(b)
}

// aggRecord is the stored form of one point's refined aggregate: the trial
// prefix [0, Trials) folded ascending. Exact partials round-trip, so a
// warm re-run's record compares byte-equal.
type aggRecord struct {
	Trials     int          `json:"trials"`
	Crashes    int          `json:"crashes"`
	Makespan   campaign.Agg `json:"makespan"`
	Slowdown   campaign.Agg `json:"slowdown"`
	Efficiency campaign.Agg `json:"efficiency"`
}

// putVerify persists one record — or, if its key is already present,
// byte-compares the stored payload against this run's recomputation. A
// mismatch means the computation was not deterministic (or the store is
// damaged) and fails the run; a match counts toward Result.StoreVerified.
func (e *explorer) putVerify(kind, key string, payload any) error {
	b, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("explore: marshal %s record: %w", kind, err)
	}
	if prev, ok := e.cfg.Store.Get(kind, key); ok {
		if !bytes.Equal(prev, b) {
			return fmt.Errorf("explore: %s record %s diverges from stored run: recomputation is not deterministic", kind, key)
		}
		e.verified++
		return nil
	}
	return e.cfg.Store.Put(kind, key, json.RawMessage(b))
}

// persist writes the exploration's records: one aggregate per explored
// cell (grid and probe), one record per crossover, one per tau search.
func (e *explorer) persist(res *Result) error {
	sfp := e.cfg.streamFingerprint()
	for _, c := range append(append([]*campaign.Tally{}, e.cells...), e.probes...) {
		if c.N == 0 {
			continue
		}
		key := store.Key(sfp + "|" + c.Point.Fingerprint() + fmt.Sprintf("|trials:%d", c.N))
		rec := aggRecord{
			Trials: c.N, Crashes: c.Crashes.Total,
			Makespan: c.Aggs[0], Slowdown: c.Aggs[1], Efficiency: c.Aggs[2],
		}
		if err := e.putVerify(aggKind, key, rec); err != nil {
			return err
		}
	}
	rfp := e.runFingerprint()
	for i, x := range res.Crossovers {
		key := store.Key(rfp + fmt.Sprintf("|xover:%d", i))
		if err := e.putVerify(xoverKind, key, x); err != nil {
			return err
		}
	}
	for i, t := range res.Tau {
		key := store.Key(rfp + fmt.Sprintf("|tau:%d", i))
		if err := e.putVerify(tauKind, key, t); err != nil {
			return err
		}
	}
	return nil
}
