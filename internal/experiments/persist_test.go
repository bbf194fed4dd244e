package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/store"
)

// openStore opens a store over dir, failing the test on error.
func openStore(t *testing.T, dir, label string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, label)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storedSpecs is smallSpecs plus a duplicate point, so the memo overlay
// (Memoized, zeroed ElapsedMS) is exercised under the store.
func storedSpecs() []Spec {
	specs := smallSpecs()
	dup := specs[1]
	dup.Name = "classic-again"
	return append(specs, dup)
}

// TestSweepStoreWarmRunIsIdentical is the cache-correctness property at
// the experiments layer: a warm-store sweep must reproduce the populating
// sweep exactly — every Result field including ElapsedMS and the raw
// Measure — while performing zero simulations (misses=0, puts=0).
func TestSweepStoreWarmRunIsIdentical(t *testing.T) {
	dir := t.TempDir()
	cold, err := SweepStore(2, openStore(t, dir, "cold"), storedSpecs())
	if err != nil {
		t.Fatal(err)
	}

	warmStore := openStore(t, dir, "warm")
	warm, err := SweepStore(2, warmStore, storedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm run diverges from the run that populated the store:\n%+v\nvs\n%+v", cold, warm)
	}
	coldJSON, _ := json.Marshal(cold)
	warmJSON, _ := json.Marshal(warm)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("warm JSON differs:\n%s\nvs\n%s", coldJSON, warmJSON)
	}
	if st := warmStore.Stats(); st.Misses != 0 || st.Puts != 0 || st.Hits == 0 {
		t.Fatalf("warm run should simulate nothing: %+v", st)
	}
	// The memo overlay is independent of store warmth.
	if !warm[4].Memoized || warm[4].ElapsedMS != 0 {
		t.Fatalf("duplicate point lost its memo flag on the warm path: %+v", warm[4])
	}
	if warm[4].Measure != warm[1].Measure {
		t.Fatal("memo hits must share the served measure")
	}
}

// TestResultRoundTripExact pins the wire schema: a stored Result decodes
// field-for-field identical, including the unexported Measure internals
// that campaign efficiency math consumes after a cache hit.
func TestResultRoundTripExact(t *testing.T) {
	res, err := SweepN(1, smallSpecs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	raw, err := json.Marshal(encodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	var back resultWire
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip decode failed: %v", err)
	}
	if !reflect.DeepEqual(r, back.Result) {
		t.Fatalf("round trip not exact:\n%+v\nvs\n%+v", r, back.Result)
	}
	if back.Result.Measure.samples != r.Measure.samples {
		t.Fatalf("sample count lost: %d vs %d", back.Result.Measure.samples, r.Measure.samples)
	}
	// A payload without its measure is a miss, never a half-result.
	if err := json.Unmarshal([]byte(`{"result":{"name":"x"}}`), &back); err == nil {
		t.Fatal("measureless payload must decode as a miss")
	}
	if err := json.Unmarshal([]byte(`{broken`), &back); err == nil {
		t.Fatal("garbage payload must decode as a miss")
	}
}

// TestPopulateStoreShardsPartitionAndMerge is the tentpole property at
// this layer: random shard counts and populate orders must partition the
// unique points exactly (each simulated once, by one shard), and a plain
// warm sweep over the merged store must reproduce the single-process
// sweep with zero misses.
func TestPopulateStoreShardsPartitionAndMerge(t *testing.T) {
	specs := storedSpecs()
	direct, err := SweepN(1, specs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalize(t, direct)

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		shards := 2 + rng.Intn(3)
		ownedBy := make([]int, len(specs)) // shard claiming each spec index
		for i := range ownedBy {
			ownedBy[i] = -1
		}
		var puts int64
		for _, i := range rng.Perm(shards) {
			sh := store.Shard{Index: i, Count: shards}
			st := openStore(t, dir, sh.String())
			res, err := PopulateStore(2, st, sh, specs)
			if err != nil {
				t.Fatal(err)
			}
			// Every point a shard claims is simulated and persisted by it:
			// disjoint shards never hit each other's work.
			if s := st.Stats(); s.Hits != 0 || s.Misses != s.Puts {
				t.Fatalf("shard %v store traffic: %+v", sh, s)
			}
			puts += st.Stats().Puts
			for j, r := range res {
				if r.Name == "" {
					continue // resolved to a point another shard owns
				}
				if ownedBy[j] != -1 {
					t.Fatalf("spec %d claimed by shards %d and %d", j, ownedBy[j], i)
				}
				ownedBy[j] = i
				if r.Name != specs[j].Name {
					t.Fatalf("owned result %d misnamed: %q", j, r.Name)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if puts != 4 {
			t.Fatalf("round %d: %d simulations across shards, want each unique point once (4)", round, puts)
		}
		for j, owner := range ownedBy {
			if owner == -1 {
				t.Fatalf("round %d: spec %d owned by no shard", round, j)
			}
		}

		mergeStore := openStore(t, dir, "merge")
		merged, err := SweepStore(1, mergeStore, specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalize(t, merged); got != want {
			t.Fatalf("round %d: merged sweep diverges from single-process run:\n%s\nvs\n%s", round, got, want)
		}
		if st := mergeStore.Stats(); st.Misses != 0 || st.Puts != 0 || st.Dupes != 0 {
			t.Fatalf("round %d: merge run had to simulate: %+v", round, st)
		}
	}
}

// TestStoreCorruptionResimulated closes the loop from disk damage to
// correct output: corrupt one stored record and the next sweep must
// detect it, re-simulate exactly that point, and emit results identical
// to the pristine run — wrong numbers are never served.
func TestStoreCorruptionResimulated(t *testing.T) {
	dir := t.TempDir()
	cold, err := SweepStore(1, openStore(t, dir, "cold"), storedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalize(t, cold)

	names, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one shard file, have %v (%v)", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the second record.
	first := bytes.IndexByte(data, '\n')
	second := first + 1 + bytes.IndexByte(data[first+1:], '\n')
	data[(first+second)/2] ^= 0x01
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir, "repair")
	res, err := SweepStore(1, st, storedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalize(t, res); got != want {
		t.Fatalf("post-corruption sweep diverges:\n%s\nvs\n%s", got, want)
	}
	s := st.Stats()
	if s.Corrupt != 1 {
		t.Fatalf("corruption not detected: %+v", s)
	}
	if s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("exactly the damaged point must be re-simulated and re-persisted: %+v", s)
	}

	// A record that passes the checksum but decodes to no usable result is
	// equally a miss: poison one key with a measureless payload.
	dir2 := t.TempDir()
	bad := openStore(t, dir2, "bad")
	specs := smallSpecs()[:1]
	uniq, keys, _, err := dedupe(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Put(resultKind, store.Key(keys[0]), map[string]any{"result": map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	res2, err := SweepStore(1, bad, specs)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := SweepN(1, uniq)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalize(t, res2) != canonicalize(t, fresh) {
		t.Fatal("undecodable record served instead of re-simulating")
	}
}

// TestStaleRecordReplaced: a record that passes its checksum but does not
// decode (an older schema's payload) is a store miss, and the fresh
// result replaces it in the merged view, so a Compact persists the good
// record and the next run over the reopened store is fully warm.
func TestStaleRecordReplaced(t *testing.T) {
	dir := t.TempDir()
	specs := smallSpecs()[:1]
	_, keys, _, err := dedupe(specs)
	if err != nil {
		t.Fatal(err)
	}
	addr := store.Key(keys[0])
	st := openStore(t, dir, "stale")
	if err := st.Put(resultKind, addr, map[string]any{"result": map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := SweepStore(1, st, specs); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("an undecodable record must count as a miss: %+v", s)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	again := openStore(t, dir, "again")
	if _, err := SweepStore(1, again, specs); err != nil {
		t.Fatal(err)
	}
	if s := again.Stats(); s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("the compacted store still serves the stale record: %+v", s)
	}
	recs := again.Records(resultKind)
	if len(recs) != 1 {
		t.Fatalf("want one stored result, have %d", len(recs))
	}
	var w resultWire
	if err := json.Unmarshal(recs[0].Payload, &w); err != nil {
		t.Fatalf("compacted payload does not decode: %v", err)
	}
}
