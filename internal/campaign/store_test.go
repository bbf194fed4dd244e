package campaign_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// shardedScenarios is the sharding test grid: replicated points plus a
// ccr point, so both trial paths (simulated crash schedules and ckptsim
// replays) cross the shard boundary.
func shardedScenarios() []campaign.Scenario {
	return append(smallScenarios(),
		campaign.Scenario{Point: smallPoint("ccr/point", scenario.CCR), MTBF: 10 * sim.Second})
}

func campaignJSON(t *testing.T, res *campaign.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCampaignShardedMergeByteIdentical is the campaign acceptance
// property: N shards populating a store in any order, then a merge run
// over the warm store, reproduce the storeless single-process campaign
// byte for byte — with zero merge-time simulations — and the persisted
// shard aggregates verify against the pooled statistics.
func TestCampaignShardedMergeByteIdentical(t *testing.T) {
	scs := shardedScenarios()
	base := campaign.Config{Trials: 9, Seed: 5, Workers: 2}
	plain, err := campaign.Run(base, scs)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignJSON(t, plain)

	const shards = 3
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	owned := make([]int, len(scs)) // trials per scenario, summed over shards
	for _, i := range rng.Perm(shards) {
		sh := store.Shard{Index: i, Count: shards}
		st, err := store.Open(dir, sh.String())
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Store = st
		part, err := campaign.Populate(cfg, scs, sh)
		if err != nil {
			t.Fatal(err)
		}
		if part.Trials != 9 || len(part.Scenarios) != len(scs) {
			t.Fatalf("shard %v partial result: %d trials, %d scenarios", sh, part.Trials, len(part.Scenarios))
		}
		for k, sr := range part.Scenarios {
			owned[k] += sr.Trials
		}
		if ccr := part.Scenarios[len(scs)-1]; ccr.Trials != 3 {
			t.Fatalf("shard %v replayed %d ccr trials, want 3 of 9", sh, ccr.Trials)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for k, n := range owned {
		if n != 9 {
			t.Fatalf("scenario %d: shards own %d trials, want a partition of 9", k, n)
		}
	}

	st, err := store.Open(dir, "merge")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := base
	cfg.Store = st
	merged, err := campaign.Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignJSON(t, merged); got != want {
		t.Fatalf("merged campaign diverges from the storeless single-process run:\n%s\nvs\n%s", got, want)
	}
	// Zero simulations at merge time: every sweep point was a store hit,
	// and no shard simulated a point another had. The merge's own puts are
	// exactly its whole-campaign aggregate records, which no shard wrote.
	if s := st.Stats(); s.Misses != 0 || s.Dupes != 0 || s.Puts != int64(len(scs)) {
		t.Fatalf("merge run was not fully warm: %+v", s)
	}
	verified, err := campaign.VerifyStoredAggregates(cfg, scs, merged)
	if err != nil {
		t.Fatal(err)
	}
	// Two complete schemes: the 3-shard populate and the merge run's own
	// whole-campaign (0/1) records.
	if verified != 2 {
		t.Fatalf("verified %d aggregate schemes, want 2", verified)
	}

	// A second warm run over the compacted store is still byte-identical.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, "again")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg.Store = st2
	again, err := campaign.Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignJSON(t, again); got != want {
		t.Fatal("post-compaction warm campaign diverges")
	}
	if s := st2.Stats(); s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("post-compaction run was not warm, or stored again: %+v", s)
	}
}

// TestCampaignStoreDoesNotChangeOutput: running with a store (cold) must
// not perturb the campaign aggregate relative to the storeless path.
func TestCampaignStoreDoesNotChangeOutput(t *testing.T) {
	scs := smallScenarios()[:1]
	base := campaign.Config{Trials: 6, Seed: 11}
	plain, err := campaign.Run(base, scs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), "cold")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := base
	cfg.Store = st
	stored, err := campaign.Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if campaignJSON(t, plain) != campaignJSON(t, stored) {
		t.Fatal("a cold store changed the campaign output")
	}
	if s := st.Stats(); s.Puts == 0 {
		t.Fatalf("cold campaign persisted nothing: %+v", s)
	}
}

// openStore opens a store over dir under label, closing it with the test.
func openStore(t *testing.T, dir, label string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, label)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestCampaignWarmRunStoresNothing: a second store-backed run of the same
// campaign byte-verifies its aggregate records instead of appending them
// again, so the store holds each record once.
func TestCampaignWarmRunStoresNothing(t *testing.T) {
	scs := shardedScenarios()
	dir := t.TempDir()
	var stats []store.Stats
	for run := 0; run < 2; run++ {
		st, err := store.Open(dir, "run")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := campaign.Run(campaign.Config{Trials: 4, Seed: 3, Workers: 2, Store: st}, scs); err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st.Stats())
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if cold, warm := stats[0], stats[1]; cold.Puts == 0 || warm.Misses != 0 || warm.Puts != 0 {
		t.Fatalf("warm run stored records again: cold %+v, warm %+v", cold, warm)
	}
	if s := openStore(t, dir, "check").Stats(); s.Dupes != 0 {
		t.Fatalf("reopened store holds duplicate records: %+v", s)
	}
}

// gtcClassic is the flag campaign `-mode campaign -app gtc -procs 8 -iters
// 2 -modes classic -mtbf …`: GTC classic on 8 logical ranks at degree 2,
// one point per MTBF.
func gtcClassic(t *testing.T, mtbfs ...float64) []campaign.Scenario {
	t.Helper()
	g := scenario.Grid{Apps: []string{"gtc"}, Modes: []scenario.Mode{scenario.Classic},
		Procs: []int{8}, Degrees: []int{2}, Iters: 2}
	points, err := g.Expand()
	if err != nil || len(points) != 1 {
		t.Fatalf("grid expands to %d points: %v", len(points), err)
	}
	var out []campaign.Scenario
	for _, m := range mtbfs {
		sc := points[0]
		sc.Name = fmt.Sprintf("%s/mtbf%g", sc.Name, m)
		sc.Fault = &scenario.FaultSpec{MTBFSeconds: m}
		c, err := campaign.FromScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestShardRecordsIndependentOfGrid: a shard's aggregate record of a point
// covers the same trials whatever grid the point was populated in, so
// shard 0/2 of a two-MTBF grid and shard 0/2 of the one-MTBF grid that
// shares a point write one record, and the one-MTBF merge verifies both
// its 2-shard scheme and its own whole-campaign records.
func TestShardRecordsIndependentOfGrid(t *testing.T) {
	both := gtcClassic(t, 0.02, 0.5)
	alone := both[1:]
	cfg := campaign.Config{Trials: 21, Seed: 1, Workers: 2}
	dir := t.TempDir()
	for _, run := range []struct {
		scs []campaign.Scenario
		sh  store.Shard
	}{{both, store.Shard{Index: 0, Count: 2}}, {alone, store.Shard{Index: 0, Count: 2}}, {alone, store.Shard{Index: 1, Count: 2}}} {
		st, err := store.Open(dir, run.sh.String())
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Store = st
		if _, err := campaign.Populate(c, run.scs, run.sh); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st := openStore(t, dir, "merge")
	cfg.Store = st
	res, err := campaign.Run(cfg, alone)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := campaign.VerifyStoredAggregates(cfg, alone, res)
	if err != nil {
		t.Fatal(err)
	}
	if verified != 2 {
		t.Fatalf("verified %d aggregate schemes, want 2 (shards 0/2 and 1/2, and the merge's 0/1)", verified)
	}
	if s := st.Stats(); s.Misses != 0 || s.Dupes != 0 {
		t.Fatalf("merge was not warm, or a record was stored twice: %+v", s)
	}
}

// verifyScenarios is the one-point grid of the aggregate-verification
// tests.
func verifyScenarios() []campaign.Scenario {
	return []campaign.Scenario{{
		Point: scenario.Scenario{
			Name: "p", App: "hpccg",
			Config: scenario.MustRaw(hpccg.Config{
				Nx: 8, Ny: 8, Nz: 8, Iters: 2, Tasks: 8,
				Scale: 64, PlaneScale: 16,
			}),
			Mode: scenario.Intra, Logical: 2,
		},
		MTBF: 100 * sim.Millisecond,
	}}
}

// doctoredRecord is an aggregate record payload over n made-up trial
// values, none of them a campaign's.
func doctoredRecord(sh store.Shard, n int) any {
	var bad campaign.Agg
	for k := 0; k < n; k++ {
		bad.Add(1.0 + float64(k))
	}
	return struct {
		Shard      string       `json:"shard"`
		Trials     int          `json:"trials"`
		Crashes    int          `json:"crashes"`
		Makespan   campaign.Agg `json:"makespan"`
		Slowdown   campaign.Agg `json:"slowdown"`
		Efficiency campaign.Agg `json:"efficiency"`
	}{sh.String(), n, 0, bad, bad, bad}
}

// TestVerifyStoredAggregatesMismatch: stored aggregates that disagree with
// the pooled trials must fail verification — the guard against a shard
// having aggregated different trials than the merge pooled — and so must
// a complete scheme whose trial counts fall short of the campaign's.
func TestVerifyStoredAggregatesMismatch(t *testing.T) {
	scs := verifyScenarios()
	cfg := campaign.Config{Trials: 4, Seed: 9, Workers: 1}
	res, err := campaign.Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := campaign.PreparePoints(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		shards []store.Shard
		counts []int
		want   string
	}{
		{"values", []store.Shard{{}}, []int{4}, "diverges from pooled trials"},
		{"trial counts", []store.Shard{{Index: 0, Count: 2}, {Index: 1, Count: 2}}, []int{2, 1}, "fold 3 trials, want 4"},
	} {
		st := openStore(t, t.TempDir(), "doctored")
		for i, sh := range c.shards {
			key := campaign.AggKey(cfg.StreamFingerprint(), pts[0].Fingerprint(), cfg.Trials, sh)
			if err := st.Put(campaign.AggKind, key, doctoredRecord(sh, c.counts[i])); err != nil {
				t.Fatal(err)
			}
		}
		vcfg := cfg
		vcfg.Store = st
		if _, err := campaign.VerifyStoredAggregates(vcfg, scs, res); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: doctored scheme gave %v, want an error saying %q", c.name, err, c.want)
		}
	}
}

// TestVerifyStoredAggregatesSkipsOtherStream: aggregate records stored
// under another trial stream's key are never compared with this stream's
// trials. A campaign over a store holding such records (here doctored, so
// any comparison would fail) stores and verifies its own records instead,
// and an exploration runs as if they were absent; the same doctored record
// under this stream's key does fail the exploration.
func TestVerifyStoredAggregatesSkipsOtherStream(t *testing.T) {
	scs := verifyScenarios()
	cfg := campaign.Config{Trials: 4, Seed: 9, Workers: 1}
	// streamFP is Config.StreamFingerprint under any trial-stream tag.
	streamFP := func(tag string) string {
		b, err := json.Marshal(struct {
			Stream      string   `json:"stream"`
			Seed        int64    `json:"seed"`
			Horizon     sim.Time `json:"horizon"`
			CkptDelta   float64  `json:"ckpt_delta"`
			CkptRestart float64  `json:"ckpt_restart"`
			CkptTau     float64  `json:"ckpt_tau"`
		}{tag, cfg.Seed, cfg.Horizon, cfg.CkptDelta, cfg.CkptRestart, cfg.CkptTau})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if streamFP("point-seed") != cfg.StreamFingerprint() {
		t.Fatal("streamFP no longer mirrors Config.StreamFingerprint")
	}
	other := streamFP("grid-position")
	pts, err := campaign.PreparePoints(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	plant := func(st *store.Store, stream string, trials int, sh store.Shard) {
		n := 0
		for k := 0; k < trials; k++ {
			if sh.Owns(k) {
				n++
			}
		}
		key := campaign.AggKey(stream, pts[0].Fingerprint(), trials, sh)
		if err := st.Put(campaign.AggKind, key, doctoredRecord(sh, n)); err != nil {
			t.Fatal(err)
		}
	}

	// A complete whole-campaign record and a complete 2-shard scheme.
	st := openStore(t, t.TempDir(), "other-stream")
	for _, sh := range []store.Shard{{}, {Index: 0, Count: 2}, {Index: 1, Count: 2}} {
		plant(st, other, cfg.Trials, sh)
	}
	ccfg := cfg
	ccfg.Store = st
	res, err := campaign.Run(ccfg, scs)
	if err != nil {
		t.Fatalf("campaign compared a record of another stream: %v", err)
	}
	verified, err := campaign.VerifyStoredAggregates(ccfg, scs, res)
	if err != nil {
		t.Fatalf("record under another stream's key reported as divergent: %v", err)
	}
	if verified != 1 {
		t.Fatalf("verified %d schemes, want 1 (the run's own whole-campaign record)", verified)
	}

	// The explorer's record of the point at its trial count.
	ecfg := explore.Config{Budget: 8, Round: 4, Seed: cfg.Seed, Workers: 1}
	plain, err := explore.Run(ecfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		stream string
		fails  bool
	}{{other, false}, {cfg.StreamFingerprint(), true}} {
		st := openStore(t, t.TempDir(), "explore")
		plant(st, c.stream, plain.Points[0].Trials, store.Shard{})
		ecfg.Store = st
		if _, err := explore.Run(ecfg, scs); (err != nil) != c.fails {
			t.Fatalf("explore over a doctored record (stream %s): err = %v, want failure %v", c.stream, err, c.fails)
		}
	}
}
