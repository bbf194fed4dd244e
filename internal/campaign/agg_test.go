package campaign

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestAggMergeMatchesPooled is the CI-math-under-merge property: for
// random trial sets split across random shard counts, merged in random
// order — with every partial aggregate pushed through its JSON wire form
// on the way — the merged statistics equal the pooled statistics to 1
// ulp, CI95 included. The values are deliberately ill-conditioned (large
// mean, tiny spread) so the sumsq - sum²/n cancellation would expose any
// inexact accumulation.
func TestAggMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 200; round++ {
		n := rng.Intn(40) // includes the 0- and 1-trial edges
		xs := make([]float64, n)
		for i := range xs {
			// Mean ~1000, stddev ~1e-4: variance is 10 orders of magnitude
			// below sumsq/n.
			xs[i] = 1000 + rng.NormFloat64()*1e-4
		}
		var all Agg
		for _, x := range xs {
			all.Add(x)
		}
		pooled := all.Stat()

		shards := 1 + rng.Intn(4)
		parts := make([]Agg, shards)
		for _, x := range xs {
			parts[rng.Intn(shards)].Add(x)
		}
		var merged Agg
		for _, s := range rng.Perm(shards) {
			// Round-trip through the stored form: persisted partials must
			// merge exactly like in-memory ones.
			raw, err := json.Marshal(parts[s].wire())
			if err != nil {
				t.Fatal(err)
			}
			var w aggWire
			if err := json.Unmarshal(raw, &w); err != nil {
				t.Fatal(err)
			}
			merged.Merge(w.agg())
		}
		if merged.Count() != n {
			t.Fatalf("round %d: merged %d trials, want %d", round, merged.Count(), n)
		}
		got := merged.Stat()
		if !statUlpEq(got, pooled) {
			t.Fatalf("round %d (n=%d, %d shards): merged stat %+v diverges from pooled %+v",
				round, n, shards, got, pooled)
		}
	}
}

// TestAggFewTrialEdges pins the <2-trials convention through the
// mergeable path: no trials and one trial have no dispersion estimate
// (CI95 NaN, JSON null), and a 1+1 merge acquires one.
func TestAggFewTrialEdges(t *testing.T) {
	var empty Agg
	if s := empty.Stat(); !math.IsNaN(s.CI95) || s.Mean != 0 {
		t.Fatalf("empty aggregate: %+v", s)
	}
	var one Agg
	one.Add(3.5)
	s := one.Stat()
	if !math.IsNaN(s.CI95) || s.Std != 0 || s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("single-trial aggregate: %+v", s)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var w map[string]any
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	if v, present := w["ci95"]; !present || v != nil {
		t.Fatalf("undefined CI95 must encode as null: %s", raw)
	}
	var other Agg
	other.Add(4.5)
	one.Merge(other)
	if s := one.Stat(); math.IsNaN(s.CI95) || s.Mean != 4.0 || s.Min != 3.5 || s.Max != 4.5 {
		t.Fatalf("1+1 merge must define a CI: %+v", s)
	}
	// Merging emptiness changes nothing.
	before := one.Stat()
	one.Merge(Agg{})
	if one.Count() != 2 || !statUlpEq(one.Stat(), before) {
		t.Fatalf("empty merge changed the aggregate: %+v", one.Stat())
	}
}

// TestExpansionExactness: the exact accumulator must survive a sum that
// defeats naive float64 addition outright (1, 1e100, 1, -1e100 sums to 2,
// naive addition says 0), in any order.
func TestExpansionExactness(t *testing.T) {
	xs := []float64{1, 1e100, 1, -1e100}
	naive := 0.0
	for _, x := range xs {
		naive += x
	}
	if naive == 2 {
		t.Skip("test platform sums this exactly; pick harder values")
	}
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 20; round++ {
		var e expansion
		for _, i := range rng.Perm(len(xs)) {
			e.add(xs[i])
		}
		if v := e.value(); v != 2 {
			t.Fatalf("round %d: exact sum = %v, want 2", round, v)
		}
	}
}

// TestVerifyStoredAggregatesMismatch: a stored aggregate that disagrees
// with the pooled trials must fail verification — the guard against a
// shard having aggregated different trials than the merge pooled.
func TestVerifyStoredAggregatesMismatch(t *testing.T) {
	scs := verifyScenarios()
	cfg := Config{Trials: 4, Seed: 9, Workers: 1}
	res, err := Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir(), "doctored")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var bad Agg
	for k := 0; k < 4; k++ {
		bad.Add(1.0 + float64(k)) // not the campaign's makespans
	}
	if err := persistAggregates(st, store.Shard{}, cfg, 4, scs, [][3]Agg{{bad, bad, bad}}); err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if _, err := VerifyStoredAggregates(cfg, scs, res); err == nil {
		t.Fatal("doctored aggregate record passed verification")
	}
}

// verifyScenarios is the one-point grid of the aggregate-verification
// tests.
func verifyScenarios() []Scenario {
	return []Scenario{{
		Point: scenario.Scenario{
			Name: "p", App: "hpccg",
			Config: scenario.MustRaw(hpccg.Config{
				Nx: 8, Ny: 8, Nz: 8, Iters: 2, Tasks: 8,
				Scale: 64, PlaneScale: 16,
				IntraDdot: true, IntraSparsemv: true,
			}),
			Mode: scenario.Intra, Logical: 2,
		},
		MTBF: 100 * sim.Millisecond,
	}}
}

// TestVerifyStoredAggregatesSkipsOtherStream: aggregate records stored
// under the key layout of grid-position trial seeds (the campaign
// fingerprint without its trial-stream name) are not candidates for
// verification. A merge over a store populated that way re-simulates and
// verifies its own records instead of reporting the old ones — here
// doctored, so any comparison would fail — as divergent.
func TestVerifyStoredAggregatesSkipsOtherStream(t *testing.T) {
	scs := verifyScenarios()
	cfg := Config{Trials: 4, Seed: 9, Workers: 1}
	st, err := store.Open(t.TempDir(), "old-stream")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	oldFP, err := json.Marshal(struct {
		Seed        int64    `json:"seed"`
		Trials      int      `json:"trials"`
		Horizon     sim.Time `json:"horizon"`
		CkptDelta   float64  `json:"ckpt_delta"`
		CkptRestart float64  `json:"ckpt_restart"`
		CkptTau     float64  `json:"ckpt_tau"`
	}{cfg.Seed, cfg.Trials, cfg.Horizon, cfg.CkptDelta, cfg.CkptRestart, cfg.CkptTau})
	if err != nil {
		t.Fatal(err)
	}
	sfp, err := scenarioFingerprint(scs[0])
	if err != nil {
		t.Fatal(err)
	}
	// A complete whole-campaign record and a complete 2-shard scheme.
	for _, sh := range []store.Shard{{}, {Index: 0, Count: 2}, {Index: 1, Count: 2}} {
		n := cfg.Trials / max(sh.Count, 1)
		var bad Agg
		for k := 0; k < n; k++ {
			bad.Add(1.0 + float64(k))
		}
		rec := aggRecord{Shard: sh.String(), Trials: n, Makespan: bad.wire(), Slowdown: bad.wire(), Efficiency: bad.wire()}
		if err := st.Put(aggKind, aggKey(string(oldFP), sfp, sh), rec); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Store = st
	res, err := Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := VerifyStoredAggregates(cfg, scs, res)
	if err != nil {
		t.Fatalf("record under the old stream's key reported as divergent: %v", err)
	}
	if verified != 1 {
		t.Fatalf("verified %d schemes, want 1 (the run's own whole-campaign record)", verified)
	}
}
