package explore

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/campaign"
	"repro/internal/store"
)

// Store record kinds of the bisection and tau outcomes. They bind to the
// full run (their outcomes depend on the whole budget history); the
// explored cells' aggregates are campaign records (campaign.PersistTally),
// keyed by the point and its trial count alone, so any driver that folded
// the same trials of the same point shares the record.
const (
	xoverKind = "explore-crossover"
	tauKind   = "explore-tau"
)

// runFingerprint pins the trial streams (campaign.Config.StreamFingerprint),
// the budget knobs and the full grid — the identity of one complete
// exploration.
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
	}{cfg.campaignConfig().StreamFingerprint(), cfg.Budget, cfg.Round, cfg.TargetCI, cfg.BracketRatio, cfg.TauTraces, fps})
	if err != nil {
		panic(fmt.Sprintf("explore: fingerprint: %v", err))
	}
	return string(b)
}

// persist stores the exploration's records — one aggregate per explored
// cell (grid and probe), one record per crossover, one per tau search —
// each put if absent and byte-verified against the stored one otherwise.
// A mismatch fails the run; a match counts toward Result.StoreVerified.
func (e *explorer) persist(res *Result) error {
	ccfg := e.cfg.campaignConfig()
	var steps []func() (verified bool, err error)
	for _, c := range slices.Concat(e.cells, e.probes) {
		if c.N > 0 {
			steps = append(steps, func() (bool, error) { return campaign.PersistTally(ccfg, c, c.N, store.Shard{}) })
		}
	}
	rfp := e.runFingerprint()
	for i, x := range res.Crossovers {
		key := store.Key(rfp + fmt.Sprintf("|xover:%d", i))
		steps = append(steps, func() (bool, error) { return e.cfg.Store.PutOrVerify(xoverKind, key, x) })
	}
	for i, t := range res.Tau {
		key := store.Key(rfp + fmt.Sprintf("|tau:%d", i))
		steps = append(steps, func() (bool, error) { return e.cfg.Store.PutOrVerify(tauKind, key, t) })
	}
	for _, step := range steps {
		verified, err := step()
		if err != nil {
			return fmt.Errorf("explore: %w", err)
		}
		if verified {
			e.verified++
		}
	}
	return nil
}
