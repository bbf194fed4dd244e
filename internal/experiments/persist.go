package experiments

import (
	"encoding/json"
	"errors"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/sim"
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

// UnmarshalJSON decodes a stored payload and rebuilds the Result's
// Measure from it. A payload without its Measure (e.g. a record written
// by an older schema) is an error, so the store treats it as a miss and
// the point is re-simulated: a questionable record is never allowed to
// stand in for a simulation.
func (w *resultWire) UnmarshalJSON(b []byte) error {
	type plain resultWire // the same fields without this method
	*w = resultWire{}
	if err := json.Unmarshal(b, (*plain)(w)); err != nil {
		return err
	}
	mw := w.Measure
	if mw == nil {
		return errors.New("experiments: stored result has no measure")
	}
	r := &w.Result
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
	return nil
}
