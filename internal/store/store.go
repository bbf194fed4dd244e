// Package store is the persistent, content-addressed result cache that
// lets experiment campaigns outlive one process. Records are keyed by the
// canonical content fingerprints that already flow through the sweep memo
// (scenario.Fingerprint / experiments.Spec keys), hashed to fixed-size
// addresses, and appended to per-process shard files under one directory.
//
// The format is append-safe and merge-friendly by construction:
//
//   - One record per line: "crc32c_hex<TAB>record_json\n". The checksum
//     covers the exact record bytes, so a torn tail (crash mid-append), a
//     flipped byte, or any other corruption is detected per record and the
//     damaged record is dropped — the caller re-simulates that point; a
//     corrupt record is never silently merged.
//   - Records are immutable and deduplicated by (kind, key) on read. Two
//     shard files produced by different processes merge by concatenation:
//     Open reads every *.jsonl in the directory (sorted by name) and keeps
//     the first valid record per key, so the merged view is deterministic
//     in the file set, not in who wrote what when. The one exception is a
//     record whose payload its reader cannot decode: GetOrCompute treats
//     it as a miss and lets the fresh payload replace it in the view. A
//     record a run derives instead of looking up goes through
//     PutOrVerify: appended once, byte-verified by every later run.
//   - Compact rewrites the merged view as a single canonical file with
//     records sorted by (kind, key): byte-identical however many shard
//     files it was merged from and in whatever order they were written.
//
// Concurrent goroutines may share one Store. Concurrent processes must
// write distinct shard labels (the CLI's -shard i/N does); readers never
// conflict.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Record is one cached result: a kind (namespace), the content address of
// the point it caches, and the opaque payload the owning layer serialized.
type Record struct {
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// Stats describes the store's merged view and its traffic since Open.
type Stats struct {
	Files     int `json:"files"`     // shard files read
	Records   int `json:"records"`   // live records after dedup
	Dupes     int `json:"dupes"`     // duplicate records dropped (same kind+key seen again)
	Corrupt   int `json:"corrupt"`   // complete records dropped on checksum/parse failure
	Truncated int `json:"truncated"` // files whose final record was torn (no closing newline)

	Hits   int64 `json:"hits"`   // lookups served from the store
	Misses int64 `json:"misses"` // lookups that found nothing usable
	Puts   int64 `json:"puts"`   // records appended by this process
}

// String renders the stats as the one-line report the CLI prints to
// stderr; a warm run is recognizable by misses=0.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d puts=%d records=%d dupes=%d corrupt=%d truncated=%d",
		s.Hits, s.Misses, s.Puts, s.Records, s.Dupes, s.Corrupt, s.Truncated)
}

// Store is the merged read view of a store directory plus one append-only
// shard file for this process's writes.
type Store struct {
	dir   string
	label string

	mu   sync.RWMutex
	mem  map[string]map[string]json.RawMessage // kind -> key -> payload
	file *os.File                              // lazily-opened append target

	files, records, dupes, corrupt, truncated int
	hits, misses, puts                        atomic.Int64
}

// crcTable is the Castagnoli polynomial, the same one filesystems use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Key returns the content address of a canonical fingerprint string: its
// SHA-256, hex-encoded. Collisions are cryptographically excluded, so equal
// keys mean equal fingerprints mean identical simulations.
func Key(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:])
}

// Open creates the directory if needed, reads every shard file (*.jsonl,
// sorted by name) into the merged in-memory view, and prepares an append
// file named after label for this process's writes ("" = "local"). Torn
// tails and corrupt records are counted and skipped, never merged.
func Open(dir, label string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if label == "" {
		label = "local"
	}
	s := &Store{dir: dir, label: label, mem: map[string]map[string]json.RawMessage{}}
	names, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.readShard(name); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// readShard merges one shard file into the view: first valid record per
// (kind, key) wins, in file-name order — deterministic for any writer
// interleaving because record payloads at one content address are
// themselves deterministic.
func (s *Store) readShard(name string) error {
	data, err := os.ReadFile(name)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.files++
	for len(data) > 0 {
		line := data
		nl := bytes.IndexByte(data, '\n')
		torn := nl < 0 // only a final line without its newline is a torn append
		if torn {
			data = nil
		} else {
			line = data[:nl]
			data = data[nl+1:]
		}
		rec, ok := decodeLine(line)
		if !ok {
			if torn {
				s.truncated++
			} else {
				s.corrupt++
			}
			continue
		}
		if s.insert(rec.Kind, rec.Key, rec.Payload) {
			s.records++
		} else {
			s.dupes++
		}
	}
	return nil
}

// decodeLine parses and verifies one "crc<TAB>json" record line.
func decodeLine(line []byte) (Record, bool) {
	tab := bytes.IndexByte(line, '\t')
	if tab != 8 { // crc32 is always 8 hex digits
		return Record{}, false
	}
	want, err := hex.DecodeString(string(line[:tab]))
	if err != nil {
		return Record{}, false
	}
	body := line[tab+1:]
	var sum [4]byte
	got := crc32.Checksum(body, crcTable)
	sum[0], sum[1], sum[2], sum[3] = byte(got>>24), byte(got>>16), byte(got>>8), byte(got)
	if !bytes.Equal(want, sum[:]) {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil || rec.Kind == "" || rec.Key == "" {
		return Record{}, false
	}
	return rec, true
}

// encodeLine renders one record line, checksum first.
func encodeLine(rec Record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return appendLine(make([]byte, 0, len(body)+10), body), nil
}

// appendLine appends the record line of body, a marshaled Record, to dst.
func appendLine(dst, body []byte) []byte {
	dst = fmt.Appendf(dst, "%08x\t", crc32.Checksum(body, crcTable))
	dst = append(dst, body...)
	return append(dst, '\n')
}

// insert adds a record to the view if absent; the caller holds mu (or is
// the only owner, during Open). Reports whether the record was new.
func (s *Store) insert(kind, key string, payload json.RawMessage) bool {
	byKey := s.mem[kind]
	if byKey == nil {
		byKey = map[string]json.RawMessage{}
		s.mem[kind] = byKey
	}
	if _, dup := byKey[key]; dup {
		return false
	}
	byKey[key] = payload
	return true
}

// Get returns the payload cached at (kind, key), if any. It is the cache
// hot path: zero allocations on a hit or a miss.
func (s *Store) Get(kind, key string) (json.RawMessage, bool) {
	s.mu.RLock()
	p, ok := s.mem[kind][key]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return p, ok
}

// GetOrCompute serves the record at (kind, key) when its payload decodes
// into T, and otherwise calls compute and Puts the fresh value. A nil
// store or an empty key only computes. A payload that does not decode —
// written by an older schema, say, or rejected by T's own decoding — is a
// miss, never a stand-in result: the fresh value replaces it in the
// merged view, so the next Compact persists the good record. hit reports
// whether the store served the value.
func GetOrCompute[T any](s *Store, kind, key string, compute func() (T, error)) (v T, hit bool, err error) {
	if s == nil || key == "" {
		v, err = compute()
		return v, false, err
	}
	s.mu.RLock()
	raw, found := s.mem[kind][key]
	s.mu.RUnlock()
	if found && decode(raw, &v) == nil {
		s.hits.Add(1)
		return v, true, nil
	}
	s.misses.Add(1)
	if v, err = compute(); err != nil {
		return v, false, err
	}
	return v, false, s.put(kind, key, v, found)
}

// decode is json.Unmarshal for a payload already known to be valid JSON
// (Open parsed it, or Put produced it). A T that decodes itself is handed
// the bytes directly: json.Unmarshal would first validate them and then
// scan them again to find the value's end before calling it, two extra
// passes that made a warm sweep-point hit about 1.5x as expensive.
func decode[T any](raw json.RawMessage, v *T) error {
	if u, ok := any(v).(json.Unmarshaler); ok {
		return u.UnmarshalJSON(raw)
	}
	return json.Unmarshal(raw, v)
}

// Put serializes payload and appends it at (kind, key), making it visible
// to this Store immediately and to any later Open of the directory. A key
// already present is left as is (content-addressed records are immutable),
// but the append still happens so a re-run's shard file is self-contained;
// duplicates are deduplicated on read.
func (s *Store) Put(kind, key string, payload any) error {
	return s.put(kind, key, payload, false)
}

// PutOrVerify is the store step for records a run derives rather than
// looks up (aggregates, search outcomes): a record absent at (kind, key)
// is appended as by Put, and a present one is byte-compared with
// payload's encoding instead of appended again; verified reports the
// match. A mismatch is an error: the recomputation was not deterministic,
// or the store is damaged. Neither path touches the hit/miss counters,
// which count lookups: a merge that derives a record nobody stored yet
// has still simulated nothing.
func (s *Store) PutOrVerify(kind, key string, payload any) (verified bool, err error) {
	raw, line, err := encodeRecord(kind, key, payload)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.mem[kind][key]; ok {
		if !bytes.Equal(prev, raw) {
			return false, fmt.Errorf("store: %s record %s diverges from the stored one: the recomputation is not deterministic, or the store is damaged", kind, key)
		}
		return true, nil
	}
	return false, s.appendLocked(kind, key, raw, line, false)
}

// put is Put; with replace set, the appended payload also replaces the
// view's record at (kind, key), which GetOrCompute found undecodable.
func (s *Store) put(kind, key string, payload any, replace bool) error {
	raw, line, err := encodeRecord(kind, key, payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(kind, key, raw, line, replace)
}

// encodeRecord serializes payload and renders its record line.
func encodeRecord(kind, key string, payload any) (json.RawMessage, []byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("store: encode %s record: %w", kind, err)
	}
	line, err := encodeLine(Record{Kind: kind, Key: key, Payload: raw})
	if err != nil {
		return nil, nil, fmt.Errorf("store: encode %s record: %w", kind, err)
	}
	return raw, line, nil
}

// appendLocked appends one encoded record line and adds it to the view
// (replacing the view's record with replace set); the caller holds mu.
func (s *Store) appendLocked(kind, key string, raw json.RawMessage, line []byte, replace bool) error {
	if s.file == nil {
		name := filepath.Join(s.dir, "shard-"+sanitize(s.label)+".jsonl")
		f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.file = f
	}
	if _, err := s.file.Write(line); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.puts.Add(1)
	if replace {
		s.mem[kind][key] = raw
	} else if s.insert(kind, key, raw) {
		s.records++
	}
	return nil
}

// sanitize maps a shard label to a filename-safe form ("1/3" -> "1-of-3").
func sanitize(label string) string {
	label = strings.ReplaceAll(label, "/", "-of-")
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Records returns every live record of one kind, sorted by key. It does
// not touch the hit/miss counters: those describe cache traffic, and
// Records is for merge-time enumeration (e.g. campaign shard aggregates).
func (s *Store) Records(kind string) []Record {
	s.mu.RLock()
	out := make([]Record, 0, len(s.mem[kind]))
	for key, p := range s.mem[kind] {
		out = append(out, Record{Kind: kind, Key: key, Payload: p})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Compact rewrites the merged view as the single canonical file
// store.jsonl — records sorted by (kind, key) — and removes the shard
// files it subsumes. The output bytes depend only on the record set, so
// two stores holding the same results compact to identical files whatever
// shard files they grew from.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	kinds := make([]string, 0, len(s.mem))
	for kind := range s.mem {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	// The shard files are deleted below, so the compacted file must be
	// durable first: its bytes synced before the rename, the rename synced
	// into the directory. Otherwise a power loss could leave the removals
	// on disk without the file that subsumed them. The lines stream into
	// the file through one reused line buffer, so compacting never holds
	// the whole file in memory.
	tmp := filepath.Join(s.dir, "store.jsonl.tmp")
	if err := writeSynced(tmp, func(w io.Writer) error {
		var line []byte
		for _, kind := range kinds {
			keys := make([]string, 0, len(s.mem[kind]))
			for key := range s.mem[kind] {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				body, err := json.Marshal(Record{Kind: kind, Key: key, Payload: s.mem[kind][key]})
				if err != nil {
					return err
				}
				line = appendLine(line[:0], body)
				if _, err := w.Write(line); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	final := filepath.Join(s.dir, "store.jsonl")
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		if err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	names, err := filepath.Glob(filepath.Join(s.dir, "*.jsonl"))
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	for _, name := range names {
		if name != final {
			if err := os.Remove(name); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		}
	}
	return nil
}

// writeSynced creates a fresh file at name, lets write fill it through a
// buffer, and syncs it to stable storage before closing.
func writeSynced(name string, write func(io.Writer) error) error {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir makes the directory's entries (a rename into it) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Close releases the append file, flushing nothing because every Put is a
// single unbuffered write.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		return err
	}
	return nil
}

// Stats snapshots the store's merged-view and traffic counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Files: s.files, Records: s.records, Dupes: s.dupes,
		Corrupt: s.corrupt, Truncated: s.truncated,
		Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(),
	}
}
