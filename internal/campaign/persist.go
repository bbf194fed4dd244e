package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/store"
)

// aggKind namespaces the aggregate records of campaign and explore runs.
const aggKind = "campaign-agg"

// trialStream names how trial seeds derive from the master seed (see
// PointSeed). It is part of every aggregate key, so records drawn under
// another derivation are never compared against this stream's trials and
// reported as divergent.
const trialStream = "point-seed"

// StreamFingerprint canonically encodes everything but the point that
// shapes what trial t of a point measures: the trial-stream tag, the
// master seed, the horizon and the checkpoint knobs. Trials and Workers
// are left out: a record's key carries its trial count, and the fan-out
// cannot change a trial.
func (cfg Config) StreamFingerprint() string {
	b, err := json.Marshal(struct {
		Stream      string   `json:"stream"`
		Seed        int64    `json:"seed"`
		Horizon     sim.Time `json:"horizon"`
		CkptDelta   float64  `json:"ckpt_delta"`
		CkptRestart float64  `json:"ckpt_restart"`
		CkptTau     float64  `json:"ckpt_tau"`
	}{trialStream, cfg.Seed, cfg.Horizon, cfg.CkptDelta, cfg.CkptRestart, cfg.CkptTau})
	if err != nil {
		panic(fmt.Sprintf("campaign: fingerprint: %v", err)) // struct of scalars cannot fail
	}
	return string(b)
}

// scenarioFingerprint canonically encodes one campaign scenario: the
// point and its native reference by content fingerprint, plus the failure
// process parameters.
func scenarioFingerprint(sc Scenario) (string, error) {
	pfp, err := sc.Point.Fingerprint()
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	nfp, err := sc.nativeScenario().Fingerprint()
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	b, err := json.Marshal(struct {
		Point   string   `json:"point"`
		Native  string   `json:"native"`
		MTBF    sim.Time `json:"mtbf"`
		Horizon sim.Time `json:"horizon"`
	}{pfp, nfp, sc.MTBF, sc.Horizon})
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	return string(b), nil
}

// aggKey is the content address of one point's aggregate over the trials
// of [0, trials) that shard sh owns: the key determines the trial set.
func aggKey(streamFP, pointFP string, trials int, sh store.Shard) string {
	return store.Key(fmt.Sprintf("%s|%s|trials:%d|shard:%s", streamFP, pointFP, trials, sh))
}

// aggRecord is the stored form of one tally: its exact partial
// aggregates, which round-trip bit for bit, so N shards' records merge
// into the pooled aggregate (VerifyStoredAggregates checks they do) and a
// recomputation compares byte-equal.
type aggRecord struct {
	Shard      string `json:"shard"`  // "i/N"
	Trials     int    `json:"trials"` // trials folded: those the shard owns
	Crashes    int    `json:"crashes"`
	Makespan   Agg    `json:"makespan"`
	Slowdown   Agg    `json:"slowdown"`
	Efficiency Agg    `json:"efficiency"`
}

// PersistTally stores the aggregate record of a tally over the trials of
// [0, trials) that shard sh owns, in cfg.Store, or byte-verifies the
// record already there (store.PutOrVerify; verified reports it). Run and
// Populate persist every point this way, and the explorer every cell at
// its trial count, so an unsharded campaign of T trials and an
// exploration that gave a point T trials share the point's record.
func PersistTally(cfg Config, tl *Tally, trials int, sh store.Shard) (verified bool, err error) {
	rec := aggRecord{
		Shard: sh.String(), Trials: tl.N, Crashes: tl.Crashes.Total,
		Makespan: tl.Aggs[0], Slowdown: tl.Aggs[1], Efficiency: tl.Aggs[2],
	}
	key := aggKey(cfg.StreamFingerprint(), tl.Point.Fingerprint(), trials, sh)
	if verified, err = cfg.Store.PutOrVerify(aggKind, key, rec); err != nil {
		return false, fmt.Errorf("campaign: scenario %q: %w", tl.Point.Scenario.Point.Name, err)
	}
	return verified, nil
}

// ulpEq reports whether two float64s are equal to within one unit in the
// last place (NaN matches NaN: the <2-trials CI95 convention).
func ulpEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b || math.Nextafter(a, b) == b
}

// statUlpEq compares two Stats field-wise to 1 ulp.
func statUlpEq(a, b Stat) bool {
	return ulpEq(a.Mean, b.Mean) && ulpEq(a.Std, b.Std) && ulpEq(a.CI95, b.CI95) &&
		ulpEq(a.Min, b.Min) && ulpEq(a.Max, b.Max)
}

// VerifyStoredAggregates cross-checks a campaign result against the
// aggregate records in the store: for every shard scheme N whose records
// are complete (shards 0/N … N-1/N present for every scenario), the
// merged count/sum/sumsq statistics must equal the pooled statistics in
// res to 1 ulp, CI95 included. It returns the number of schemes verified.
// A mismatch is an error, and so is a complete scheme whose trial counts
// do not add up to the campaign's: the key fixes each record's trial set,
// so either means a shard aggregated different trials than the merged run
// pooled. Records are read from one scan, never looked up, so the store's
// hit/miss counters still describe the run alone.
func VerifyStoredAggregates(cfg Config, scenarios []Scenario, res *Result) (int, error) {
	st := cfg.Store
	if st == nil {
		return 0, fmt.Errorf("campaign: VerifyStoredAggregates needs Config.Store")
	}
	stream := cfg.StreamFingerprint()
	sfps := make([]string, len(scenarios))
	for i, sc := range scenarios {
		sfp, err := scenarioFingerprint(sc)
		if err != nil {
			return 0, err
		}
		sfps[i] = sfp
	}
	// Candidate schemes: every shard count appearing in any aggregate
	// record. The key is a hash, so records bind to scenarios by re-deriving
	// the expected key per (scenario, shard).
	stored := map[string]json.RawMessage{}
	schemes := map[int]bool{}
	for _, rec := range st.Records(aggKind) {
		stored[rec.Key] = rec.Payload
		var r aggRecord
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			continue // foreign or damaged payload: simply not a candidate
		}
		if sh, err := store.ParseShard(r.Shard); err == nil {
			schemes[sh.Count] = true
		}
	}
	counts := make([]int, 0, len(schemes))
	for n := range schemes {
		counts = append(counts, n)
	}
	sort.Ints(counts)

	verified := 0
	for _, n := range counts {
		merged := make([][3]Agg, len(scenarios))
		complete := true
		for i := 0; i < len(scenarios) && complete; i++ {
			for s := 0; s < n; s++ {
				raw, ok := stored[aggKey(stream, sfps[i], res.Trials, store.Shard{Index: s, Count: n})]
				if !ok {
					complete = false
					break
				}
				var r aggRecord
				if err := json.Unmarshal(raw, &r); err != nil {
					return verified, fmt.Errorf("campaign: aggregate record %d/%d for scenario %q: %w", s, n, scenarios[i].Point.Name, err)
				}
				merged[i][0].Merge(r.Makespan)
				merged[i][1].Merge(r.Slowdown)
				merged[i][2].Merge(r.Efficiency)
			}
		}
		if !complete {
			continue // partial populate: nothing to verify yet
		}
		for i, sr := range res.Scenarios {
			if got := merged[i][0].Count(); got != res.Trials {
				return verified, fmt.Errorf("campaign: scenario %q: the %d-shard aggregate records fold %d trials, want %d",
					sr.Name, n, got, res.Trials)
			}
			for m, name := range []string{"makespan", "slowdown", "efficiency"} {
				got := merged[i][m].Stat()
				want := [3]Stat{sr.Makespan, sr.Slowdown, sr.Efficiency}[m]
				if !statUlpEq(got, want) {
					return verified, fmt.Errorf("campaign: scenario %q: merged %d-shard %s aggregate diverges from pooled trials: %+v vs %+v",
						sr.Name, n, name, got, want)
				}
			}
		}
		verified++
	}
	return verified, nil
}
