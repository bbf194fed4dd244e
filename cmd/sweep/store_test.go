package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/store"
)

func openStore(t *testing.T, dir, label string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, label)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardedSpecFileMergeByteIdentical is the CLI acceptance property for
// plain sweeps: N shard populate runs over scenarios/smoke.json, executed
// in random order, followed by a merge run, reproduce the storeless
// -workers 1 output byte for byte (modulo elapsed_ms, which a store hit
// serves from populate time) — and the merge performs zero simulations.
func TestShardedSpecFileMergeByteIdentical(t *testing.T) {
	f, err := scenario.Load("../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := runSpecFile(&plain, f, 1, true, storeCtx{}); err != nil {
		t.Fatal(err)
	}
	want := zeroElapsed(t, plain.String())

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		shards := 2 + rng.Intn(3)
		dir := t.TempDir()
		for _, i := range rng.Perm(shards) {
			sh := store.Shard{Index: i, Count: shards}
			st := openStore(t, dir, sh.String())
			var buf bytes.Buffer
			if err := runSpecFile(&buf, f, 2, true, storeCtx{st: st, shard: sh}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), `"shard": "`+sh.String()+`"`) {
				t.Fatalf("shard run must report a populate summary, got:\n%s", buf.String())
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}

		st := openStore(t, dir, "merge")
		var merged bytes.Buffer
		if err := runSpecFile(&merged, f, 2, true, storeCtx{st: st, merge: true}); err != nil {
			t.Fatal(err)
		}
		if got := zeroElapsed(t, merged.String()); got != want {
			t.Fatalf("round %d (%d shards): merged output diverges from the storeless run:\n%s\nvs\n%s",
				round, shards, got, want)
		}
		if s := st.Stats(); s.Misses != 0 || s.Puts != 0 {
			t.Fatalf("round %d: merge was not fully warm: %+v", round, s)
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// A second warm run over the compacted store: still byte-identical,
		// still zero simulations.
		again := openStore(t, dir, "again")
		var warm bytes.Buffer
		if err := runSpecFile(&warm, f, 2, true, storeCtx{st: again}); err != nil {
			t.Fatal(err)
		}
		if zeroElapsed(t, warm.String()) != want {
			t.Fatalf("round %d: post-compaction warm run diverges", round)
		}
		if s := again.Stats(); s.Misses != 0 {
			t.Fatalf("round %d: warm run had misses: %+v", round, s)
		}
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedCampaignSpecMerge drives the checked-in ccr-vs-replication
// campaign through three shard populates and a merge, all via the CLI run
// path: the merged campaign JSON must equal the storeless run exactly (no
// elapsed fields in campaign output), with zero merge-time simulations and
// the stored shard aggregates verifying against the pooled statistics.
func TestShardedCampaignSpecMerge(t *testing.T) {
	f, err := scenario.Load("../../scenarios/campaign-ccr-vs-replication.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Trials: 3, Seed: 9, Workers: 2}
	var plain bytes.Buffer
	if err := runFailures(&plain, "campaign", f, cfg, explore.Config{}, true, storeCtx{}); err != nil {
		t.Fatal(err)
	}

	const shards = 3
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(shards) {
		sh := store.Shard{Index: i, Count: shards}
		st := openStore(t, dir, sh.String())
		var buf bytes.Buffer
		if err := runFailures(&buf, "campaign", f, cfg, explore.Config{}, true, storeCtx{st: st, shard: sh}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"shard": "`+sh.String()+`"`) {
			t.Fatalf("campaign shard run must report a populate summary, got:\n%s", buf.String())
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	st := openStore(t, dir, "merge")
	defer st.Close()
	var merged bytes.Buffer
	// merge: true exercises the CLI's aggregate verification path too.
	if err := runFailures(&merged, "campaign", f, cfg, explore.Config{}, true, storeCtx{st: st, merge: true}); err != nil {
		t.Fatal(err)
	}
	if merged.String() != plain.String() {
		t.Fatalf("merged campaign diverges from the storeless run:\n%s\nvs\n%s",
			merged.String(), plain.String())
	}
	if s := st.Stats(); s.Misses != 0 {
		t.Fatalf("campaign merge was not fully warm: %+v", s)
	}
}

// TestCorruptStoreResimulatesCLI: damaging a stored record between runs
// must surface as re-simulation, never as wrong output.
func TestCorruptStoreResimulatesCLI(t *testing.T) {
	f, err := scenario.Load("../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openStore(t, dir, "seed")
	var first bytes.Buffer
	if err := runSpecFile(&first, f, 1, true, storeCtx{st: st}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := zeroElapsed(t, first.String())

	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shard files written: %v %v", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40 // flip a bit mid-file
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, dir, "rerun")
	defer st.Close()
	var rerun bytes.Buffer
	if err := runSpecFile(&rerun, f, 1, true, storeCtx{st: st}); err != nil {
		t.Fatal(err)
	}
	if zeroElapsed(t, rerun.String()) != want {
		t.Fatal("corruption changed the output instead of forcing re-simulation")
	}
	s := st.Stats()
	if s.Corrupt == 0 && s.Truncated == 0 {
		t.Fatalf("damage went undetected: %+v", s)
	}
	if s.Misses == 0 || s.Puts == 0 {
		t.Fatalf("damaged record was not re-simulated and re-persisted: %+v", s)
	}
}
