package scenario_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/scenario"
)

// fileKeys decodes a scenario file the way the CLI does and returns the
// canonical keys of everything it declares: every expanded point's
// fingerprint, or the workload's fingerprint and each rate's stream
// fingerprint. A rejected file returns the error that rejects it; a file
// that validates but cannot be keyed fails the test, since validation
// promises a runnable, keyable experiment.
func fileKeys(t *testing.T, b []byte) (*scenario.File, []string, error) {
	t.Helper()
	f, err := scenario.Parse(b)
	if err != nil {
		return nil, nil, err
	}
	var keys []string
	if w := f.Workload; w != nil {
		if err := w.Validate(); err != nil {
			return nil, nil, err
		}
		fp, err := w.Fingerprint()
		if err != nil {
			t.Fatalf("validated workload has no fingerprint: %v", err)
		}
		keys = append(keys, fp)
		for _, r := range w.Rates {
			fp, err := w.StreamFingerprint(r)
			if err != nil {
				t.Fatalf("validated workload has no stream fingerprint at rate %g: %v", r, err)
			}
			keys = append(keys, fp)
		}
		return f, keys, nil
	}
	scs, err := f.Expand()
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range scs {
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatalf("validated scenario %q has no fingerprint: %v", sc.Name, err)
		}
		keys = append(keys, fp)
	}
	return f, keys, nil
}

// FuzzParse feeds arbitrary bytes through scenario-file decoding,
// validation and keying: Parse, then Expand and every point's Fingerprint,
// or the workload's Validate, Fingerprint and StreamFingerprint. Nothing
// may panic, and the keys must be canonical: a file that is accepted,
// re-encoded with json.Marshal and parsed again yields the same keys. The
// seeds are the checked-in scenario files.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenario files to seed the corpus (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, keys, err := fileKeys(t, data)
		if err != nil {
			return
		}
		re, err := json.Marshal(file)
		if err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		_, again, err := fileKeys(t, re)
		if err != nil {
			t.Fatalf("re-encoded file rejected: %v\n%s", err, re)
		}
		if !slices.Equal(keys, again) {
			t.Fatalf("keys change across a re-encode:\n%q\nvs\n%q\nre-encoded: %s", keys, again, re)
		}
	})
}
