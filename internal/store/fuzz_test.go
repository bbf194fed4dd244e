package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzOpen hands Open arbitrary bytes as one shard file. Open must not
// panic; every record in the merged view must come from an input line
// whose CRC-32C matches its bytes, checked here from the line format
// rather than through decodeLine; and every input line must be counted
// once, as a live record, a duplicate, a corrupt record or a torn tail.
// The seeds are the corruption tests' shard files.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	writeStore(f, dir, 5)
	clean, err := os.ReadFile(shardFile(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	first := bytes.IndexByte(clean, '\n')
	second := first + 1 + bytes.IndexByte(clean[first+1:], '\n')
	last := bytes.LastIndexByte(clean[:len(clean)-1], '\n') + 1
	flip := func(at int) []byte {
		b := bytes.Clone(clean)
		b[at] ^= 0x20
		return b
	}
	for _, seed := range [][]byte{
		clean,
		clean[:len(clean)-9],          // TestTruncatedTail
		flip((first + second) / 2),    // TestFlippedByte
		flip((last + len(clean)) / 2), // TestCorruptFinalRecord
		slices.Concat(clean, clean),   // TestDuplicateRecords
		[]byte("\n\t\n00000000\t{}"),  // empty, tab-only and torn lines
	} {
		f.Add(seed)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	fuzzDir := f.TempDir() // inputs run one at a time per process; Open writes nothing
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(fuzzDir, "fuzz.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(fuzzDir, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		nl := []byte("\n")
		lines := bytes.Count(data, nl)
		if len(data) > 0 && !bytes.HasSuffix(data, nl) {
			lines++ // a torn final line
		}
		// The payloads of the lines whose checksum matches, by (kind, key).
		valid := map[[2]string][]json.RawMessage{}
		for line := range bytes.SplitSeq(bytes.TrimSuffix(data, nl), nl) {
			if len(line) < 9 || line[8] != '\t' {
				continue
			}
			body := line[9:]
			if !strings.EqualFold(string(line[:8]), fmt.Sprintf("%08x", crc32.Checksum(body, castagnoli))) {
				continue
			}
			var rec Record
			if json.Unmarshal(body, &rec) == nil {
				k := [2]string{rec.Kind, rec.Key}
				valid[k] = append(valid[k], rec.Payload)
			}
		}

		st := s.Stats()
		if got := st.Records + st.Dupes + st.Corrupt + st.Truncated; got != lines {
			t.Fatalf("%d input lines, but records+dupes+corrupt+truncated = %d (%+v)", lines, got, st)
		}
		for kind, byKey := range s.mem {
			for key, p := range byKey {
				if !slices.ContainsFunc(valid[[2]string{kind, key}], func(v json.RawMessage) bool { return bytes.Equal(v, p) }) {
					t.Fatalf("record (%q, %q) in the view matches no input line with a valid checksum", kind, key)
				}
			}
		}
	})
}
