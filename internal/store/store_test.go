package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func put(t testing.TB, s *Store, kind, fp string, p payload) string {
	t.Helper()
	key := Key(fp)
	if err := s.Put(kind, key, p); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	key := put(t, s, "result", "fingerprint-a", payload{N: 7, S: "x"})
	if _, ok := s.Get("result", Key("fingerprint-b")); ok {
		t.Fatal("phantom record")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, "r")
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := s2.Get("result", key)
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if want := `{"n":7,"s":"x"}`; string(raw) != want {
		t.Fatalf("payload %s, want %s", raw, want)
	}
	if _, ok := s2.Get("other-kind", key); ok {
		t.Fatal("kinds must not share a namespace")
	}
	st := s2.Stats()
	if st.Records != 1 || st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 || st.Truncated != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// shardFile returns the single shard file of a store directory.
func shardFile(t testing.TB, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one shard file, have %v (%v)", names, err)
	}
	return names[0]
}

// writeStore builds a store directory holding n records and returns the
// keys in insertion order.
func writeStore(t testing.TB, dir string, n int) []string {
	t.Helper()
	s, err := Open(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = put(t, s, "result", fmt.Sprintf("fp-%03d", i), payload{N: i, S: "v"})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestTruncatedTail cuts the final record mid-line: the torn record must be
// detected (Truncated) and dropped, every earlier record kept.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	keys := writeStore(t, dir, 5)
	name := shardFile(t, dir)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the last record: drop the trailing newline plus a few bytes.
	if err := os.WriteFile(name, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, "r")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Truncated != 1 || st.Records != 4 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want 4 live records and 1 truncated", st)
	}
	if _, ok := s.Get("result", keys[4]); ok {
		t.Fatal("torn record served")
	}
	for _, k := range keys[:4] {
		if _, ok := s.Get("result", k); !ok {
			t.Fatalf("record %s lost to an unrelated tail truncation", k)
		}
	}
}

// TestFlippedByte corrupts one byte mid-file: exactly that record must be
// dropped (checksum), the rest served.
func TestFlippedByte(t *testing.T) {
	dir := t.TempDir()
	keys := writeStore(t, dir, 5)
	name := shardFile(t, dir)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second line and flip a byte inside its payload.
	first := bytes.IndexByte(data, '\n')
	second := first + 1 + bytes.IndexByte(data[first+1:], '\n')
	data[(first+second)/2] ^= 0x20
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, "r")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Records != 4 || st.Truncated != 0 {
		t.Fatalf("stats %+v, want 4 live records and 1 corrupt", st)
	}
	hits := 0
	for _, k := range keys {
		if _, ok := s.Get("result", k); ok {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("%d records served, want the 4 intact ones", hits)
	}
}

// TestCorruptFinalRecord flips a byte inside a complete, newline-terminated
// final record: that is corruption, not a torn append — only a final line
// missing its newline is truncated.
func TestCorruptFinalRecord(t *testing.T) {
	dir := t.TempDir()
	keys := writeStore(t, dir, 5)
	name := shardFile(t, dir)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	data[(last+len(data))/2] ^= 0x20
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, "r")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Truncated != 0 || st.Records != 4 {
		t.Fatalf("stats %+v, want 4 live records and 1 corrupt", st)
	}
	if _, ok := s.Get("result", keys[4]); ok {
		t.Fatal("corrupt record served")
	}
}

// TestGetOrCompute pins the get-or-compute contract: a hit decodes the
// stored payload without computing, a miss computes and persists, a nil
// store or empty key only computes, and an undecodable payload is a miss
// whose fresh value replaces it in the view that Compact writes out.
func TestGetOrCompute(t *testing.T) {
	calls := 0
	compute := func() (payload, error) {
		calls++
		return payload{N: 7, S: "fresh"}, nil
	}
	for _, c := range []struct {
		name string
		s    *Store
		key  string
	}{{"nil store", nil, Key("a")}, {"empty key", openT(t, t.TempDir()), ""}} {
		v, hit, err := GetOrCompute(c.s, "result", c.key, compute)
		if err != nil || hit || v.S != "fresh" {
			t.Fatalf("%s: %+v hit=%v err=%v", c.name, v, hit, err)
		}
		if c.s != nil {
			if st := c.s.Stats(); st.Hits != 0 || st.Misses != 0 || st.Puts != 0 {
				t.Fatalf("%s must not touch the store: %+v", c.name, st)
			}
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}

	dir := t.TempDir()
	s := openT(t, dir)
	good, stale := Key("good"), Key("stale")
	if err := s.Put("result", stale, []int{1}); err != nil { // does not decode into payload
		t.Fatal(err)
	}
	// A miss computes and persists; the key then hits without computing.
	if _, hit, err := GetOrCompute(s, "result", good, compute); err != nil || hit || calls != 3 {
		t.Fatalf("cold lookup: hit=%v calls=%d err=%v", hit, calls, err)
	}
	if v, hit, err := GetOrCompute(s, "result", good, compute); err != nil || !hit || calls != 3 || v.S != "fresh" {
		t.Fatalf("warm lookup: %+v hit=%v calls=%d err=%v", v, hit, calls, err)
	}
	if _, hit, err := GetOrCompute(s, "result", stale, compute); err != nil || hit {
		t.Fatalf("an undecodable payload must be a miss: hit=%v err=%v", hit, err)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 2 || st.Puts != 3 || st.Records != 2 {
		t.Fatalf("stats %+v", st)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	if v, hit, err := GetOrCompute(s2, "result", stale, compute); err != nil || !hit || v.S != "fresh" {
		t.Fatalf("compacted store must serve the replacement: %+v hit=%v err=%v", v, hit, err)
	}
	if st := s2.Stats(); st.Misses != 0 || st.Puts != 0 || st.Dupes != 0 {
		t.Fatalf("stats after compaction %+v", st)
	}
}

// TestPutOrVerify pins the derived-record step: an absent record is put, a
// present one is byte-compared and never appended again, a different
// payload at its key is an error, and no path counts a hit or a miss.
func TestPutOrVerify(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	key := Key("derived")
	for i, want := range []bool{false, true} {
		verified, err := s.PutOrVerify("agg", key, payload{N: 1, S: "v"})
		if err != nil || verified != want {
			t.Fatalf("call %d: verified=%v err=%v, want verified=%v", i, verified, err, want)
		}
	}
	if _, err := s.PutOrVerify("agg", key, payload{N: 2, S: "v"}); err == nil {
		t.Fatal("a different payload at a stored key verified")
	}
	if st := s.Stats(); st.Puts != 1 || st.Hits != 0 || st.Misses != 0 || st.Records != 1 {
		t.Fatalf("stats %+v, want one put and no lookups", st)
	}
	if st := openT(t, dir).Stats(); st.Records != 1 || st.Dupes != 0 {
		t.Fatalf("reopened store %+v, want the record once", st)
	}
}

// openT opens a store over dir, closing it with the test.
func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, "t")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDuplicateRecords concatenates a shard file with itself and adds a
// re-Put of an existing key: duplicates are counted and deduplicated, the
// view unchanged.
func TestDuplicateRecords(t *testing.T) {
	dir := t.TempDir()
	keys := writeStore(t, dir, 3)
	name := shardFile(t, dir)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "copy.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, "again")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dupes != 3 || st.Records != 3 {
		t.Fatalf("stats %+v, want 3 live + 3 dupes", st)
	}
	// A re-Put of a live key appends but does not change the view.
	put(t, s, "result", "fp-001", payload{N: 1, S: "v"})
	raw, ok := s.Get("result", keys[1])
	if !ok || string(raw) != `{"n":1,"s":"v"}` {
		t.Fatalf("dedup changed the live record: %s", raw)
	}
	if st := s.Stats(); st.Records != 3 {
		t.Fatalf("re-Put grew the view: %+v", st)
	}
}

// TestMergeDeterminism is the shard-order property at the store level: the
// same record set scattered across shard files in random splits and orders
// always merges to the same view and compacts to byte-identical files.
func TestMergeDeterminism(t *testing.T) {
	const records = 23
	rng := rand.New(rand.NewSource(11))
	var want []byte
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		shards := 1 + rng.Intn(4)
		// Assign each record to a random shard; write shards in random order.
		order := rng.Perm(shards)
		owner := make([]int, records)
		for i := range owner {
			owner[i] = rng.Intn(shards)
		}
		for _, sh := range order {
			s, err := Open(dir, fmt.Sprintf("%d-of-%d", sh, shards))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < records; i++ {
				if owner[i] == sh {
					put(t, s, "result", fmt.Sprintf("fp-%03d", i), payload{N: i, S: "v"})
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, "merge")
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Records != records {
			t.Fatalf("round %d: merged %d records, want %d", round, st.Records, records)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "store.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("round %d: compacted bytes differ from round 0", round)
		}
		// The compacted store must serve the same records.
		s2, err := Open(dir, "check")
		if err != nil {
			t.Fatal(err)
		}
		if st := s2.Stats(); st.Records != records || st.Files != 1 {
			t.Fatalf("round %d: post-compact stats %+v", round, st)
		}
	}
}

func TestRecordsSorted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "agg", "z", payload{N: 1})
	put(t, s, "agg", "a", payload{N: 2})
	put(t, s, "result", "m", payload{N: 3})
	recs := s.Records("agg")
	if len(recs) != 2 || recs[0].Key > recs[1].Key {
		t.Fatalf("Records not sorted or wrong kind filter: %+v", recs)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Records must not touch cache counters: %+v", st)
	}
}

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("1/3")
	if err != nil || sh != (Shard{Index: 1, Count: 3}) {
		t.Fatalf("ParseShard(1/3) = %+v, %v", sh, err)
	}
	if !sh.Active() || sh.Owns(0) || !sh.Owns(1) || !sh.Owns(4) {
		t.Fatal("ownership wrong for 1/3")
	}
	if (Shard{}).Active() || !(Shard{}).Owns(17) {
		t.Fatal("zero shard must own everything")
	}
	for _, bad := range []string{"", "3", "3/1", "-1/2", "a/b", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) accepted", bad)
		}
	}
	// Shards 0..N-1 partition any index range.
	for i := 0; i < 30; i++ {
		owners := 0
		for j := 0; j < 3; j++ {
			if (Shard{Index: j, Count: 3}).Owns(i) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("index %d owned by %d shards", i, owners)
		}
	}
}
