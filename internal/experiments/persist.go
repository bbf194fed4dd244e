package experiments

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
)

// resultKind namespaces sweep-point records in the store.
const resultKind = "result"

// measureWire is the persisted form of Measure. Every field — including
// the unexported sample count — is carried explicitly, so a decoded
// Measure is field-for-field the one the simulation produced and figure
// builders downstream of a cache hit see exactly what a fresh run sees.
// All fields are integers (sim.Time is int64), so the JSON round-trip is
// exact by construction.
type measureWire struct {
	Mode      Mode                           `json:"mode"`
	PhysProcs int                            `json:"phys_procs"`
	Wall      sim.Time                       `json:"wall"`
	AppTotal  sim.Time                       `json:"app_total"`
	Kernels   map[string]*apputil.KernelTime `json:"kernels"`
	Stats     core.Stats                     `json:"stats"`
	Samples   int                            `json:"samples"`
}

// resultWire is the payload stored at one sweep point's content address:
// the JSON Result plus the raw Measure the Result was derived from. The
// float64 fields of Result marshal shortest-round-trip, so decode(encode)
// is the identity and a cache hit emits byte-identical JSON.
type resultWire struct {
	Result  Result       `json:"result"`
	Measure *measureWire `json:"measure"`
}

func encodeResult(r Result) resultWire {
	m := r.Measure
	return resultWire{Result: r, Measure: &measureWire{
		Mode: m.Mode, PhysProcs: m.PhysProcs, Wall: m.Wall, AppTotal: m.AppTotal,
		Kernels: m.Kernels, Stats: m.Stats, Samples: m.samples,
	}}
}

// decodeResult rebuilds a Result from a stored payload. It reports false —
// a cache miss, so the point is re-simulated — when the payload does not
// decode or lacks its Measure (e.g. a record written by an older schema);
// a questionable record is never allowed to stand in for a simulation.
func decodeResult(raw json.RawMessage) (Result, bool) {
	var w resultWire
	if err := json.Unmarshal(raw, &w); err != nil || w.Measure == nil {
		return Result{}, false
	}
	r := w.Result
	mw := w.Measure
	r.Measure = &Measure{
		Mode: mw.Mode, PhysProcs: mw.PhysProcs, Wall: mw.Wall, AppTotal: mw.AppTotal,
		Kernels: mw.Kernels, Stats: mw.Stats, samples: mw.Samples,
	}
	// Restore the non-nil-map invariant a fresh run guarantees.
	if r.Measure.Kernels == nil {
		r.Measure.Kernels = map[string]*apputil.KernelTime{}
	}
	if r.Kernels == nil {
		r.Kernels = map[string]KernelResult{}
	}
	return r, true
}

// runOrLoad serves one unique sweep point: from the store when the spec is
// keyed and cached, from a fresh simulation otherwise. Fresh results of
// keyed specs are persisted, so the next process (or the merge run) hits.
// The bool reports whether the store served the point.
func runOrLoad(eng *sim.Engine, sc *mpi.Scratch, st *store.Store, s Spec, key string) (Result, bool, error) {
	if st == nil || key == "" {
		r, err := runSpec(eng, sc, s)
		return r, false, err
	}
	addr := store.Key(key)
	if raw, ok := st.Get(resultKind, addr); ok {
		if r, ok := decodeResult(raw); ok {
			return r, true, nil
		}
	}
	r, err := runSpec(eng, sc, s)
	if err != nil {
		return Result{}, false, err
	}
	if err := st.Put(resultKind, addr, encodeResult(r)); err != nil {
		return Result{}, false, err
	}
	return r, false, nil
}

// PopulateStats summarizes one shard's populate pass.
type PopulateStats struct {
	Specs     int `json:"specs"`     // sweep points requested
	Unique    int `json:"unique"`    // distinct simulations after the memo dedup
	Unkeyed   int `json:"unkeyed"`   // unique points with no content key (cannot be persisted)
	Owned     int `json:"owned"`     // unique keyed points this shard is responsible for
	Hits      int `json:"hits"`      // owned points served from the store
	Simulated int `json:"simulated"` // owned points simulated (and persisted) by this pass
}

// PopulateStore runs the slice of a spec list that shard sh owns and
// persists the results, without producing output: the build phase of a
// multi-process sweep. Every shard derives the identical deduplicated
// point list (the memo key is content-addressed), then claims unique
// points by index modulo the shard count — an exact partition, so N
// shards together simulate each unique point exactly once and their
// merged store lets a final plain run emit the single-process JSON with
// zero simulations.
//
// It returns the owned results in spec order alongside an ownership mask
// (ok[i] reports whether specs[i] resolved to an owned unique point), so
// callers can sanity-report what this shard measured. Unkeyed specs are
// skipped — their results cannot outlive the process — and are simulated
// by the merge run instead.
func PopulateStore(workers int, st *store.Store, sh store.Shard, specs []Spec) ([]Result, []bool, PopulateStats, error) {
	uniq, keys, uniqOf := dedupe(specs)
	stats := PopulateStats{Specs: len(specs), Unique: len(uniq)}
	owned := make([]bool, len(uniq))
	for j, key := range keys {
		if key == "" {
			stats.Unkeyed++
			continue
		}
		if sh.Owns(j) {
			owned[j] = true
			stats.Owned++
		}
	}

	runs := make([]Result, len(uniq))
	errs := make([]error, len(uniq))
	var hits, simulated atomic.Int64
	Progress.Plan(stats.Owned)
	forEachPooled(workers, len(uniq), func(eng *sim.Engine, sc *mpi.Scratch, j int) {
		if !owned[j] {
			return
		}
		defer Progress.Done()
		var hit bool
		runs[j], hit, errs[j] = runOrLoad(eng, sc, st, uniq[j], keys[j])
		if errs[j] != nil {
			return
		}
		if hit {
			hits.Add(1)
		} else {
			simulated.Add(1)
		}
	})
	stats.Hits = int(hits.Load())
	stats.Simulated = int(simulated.Load())

	for i, s := range specs {
		if err := errs[uniqOf[i]]; err != nil {
			return nil, nil, stats, fmt.Errorf("sweep %q: %w", s.Name, err)
		}
	}

	out := make([]Result, len(specs))
	ok := make([]bool, len(specs))
	seen := make([]bool, len(uniq))
	for i, s := range specs {
		j := uniqOf[i]
		if !owned[j] {
			continue
		}
		r := runs[j]
		r.Name = s.Name
		r.Mode = s.Mode.String()
		if seen[j] {
			r.Memoized = true
			r.ElapsedMS = 0
		}
		seen[j] = true
		out[i] = r
		ok[i] = true
	}
	return out, ok, stats, nil
}
