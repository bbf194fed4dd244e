package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps/gtc"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// marshaledKey is Key as one json.Marshal of every field, the
// construction store records were addressed by before keys were built
// from templates.
func marshaledKey(t *testing.T, s Spec) string {
	t.Helper()
	degree := s.Degree
	if !s.Mode.Replicated() {
		degree = 1
	} else if degree == 0 {
		degree = scenario.DefaultDegree
	}
	mode := s.Mode
	if mode == scenario.CCR {
		mode = scenario.Native
	}
	k, err := json.Marshal(struct {
		Mode      Mode           `json:"mode"`
		Logical   int            `json:"logical"`
		Degree    int            `json:"degree"`
		Inout     core.InoutMode `json:"inout"`
		CostScale float64        `json:"cost_scale"`
		Net       simnet.Config  `json:"net"`
		Machine   perf.Machine   `json:"machine"`
		Fault     string         `json:"fault"`
		App       string         `json:"app"`
		Replay    bool           `json:"replay,omitempty"`
	}{mode, s.Logical, degree, s.Inout, s.CostScale, s.Net, s.Machine,
		marshaledFingerprint(s.Fault), s.App.key, s.Replay != nil})
	if err != nil {
		t.Fatal(err)
	}
	return string(k)
}

// marshaledFingerprint is Schedule.Fingerprint as it was built before,
// with sort.Slice and fmt.
func marshaledFingerprint(s *fault.Schedule) string {
	if s == nil || len(s.Crashes) == 0 {
		return ""
	}
	cs := append([]fault.Crash(nil), s.Crashes...)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Time != cs[j].Time {
			return cs[i].Time < cs[j].Time
		}
		if cs[i].Logical != cs[j].Logical {
			return cs[i].Logical < cs[j].Logical
		}
		return cs[i].Lane < cs[j].Lane
	})
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "%d:%d@%d;", c.Logical, c.Lane, int64(c.Time))
	}
	return b.String()
}

// TestKeyMatchesMarshal: over random specs crossing every mode, degree,
// inout mode, platform, fault and replay combination, Key gives the bytes
// one json.Marshal of the spec gives, both for a spec keyed from scratch
// and for copies of a template (SpecFor) whose fields then change, so a
// stale template is never used. Signed zeros, which == cannot tell apart
// but JSON encodes apart, are among the changes. The fingerprint half is
// checked too: Fingerprint's strconv rendering against fmt's.
func TestKeyMatchesMarshal(t *testing.T) {
	pick := rand.New(rand.NewSource(1))
	nets := sortedValues(simnet.Nets)
	machines := sortedValues(perf.Machines)
	apps := []App{HPCCG(smallHPCCG(2)), GTC(gtc.Config{Cells: 16, PerCell: 4, Zones: 4, Steps: 2})}
	trace := core.NewTraceSet(1)
	modes := []Mode{Native, Classic, Intra, CCR}
	scales := []float64{0, math.Copysign(0, -1), 1, 2.5, 1e-9}
	schedule := func() *fault.Schedule {
		switch pick.Intn(3) {
		case 0:
			return nil
		case 1:
			return &fault.Schedule{}
		}
		s := &fault.Schedule{}
		for range 1 + pick.Intn(6) {
			s.Crashes = append(s.Crashes, fault.Crash{Logical: pick.Intn(8), Lane: pick.Intn(3),
				Time: sim.Time(pick.Int63n(int64(sim.Second)))})
		}
		return s
	}
	random := func() Spec {
		s := Spec{
			Name: "k", Mode: modes[pick.Intn(len(modes))], Logical: 1 + pick.Intn(16),
			Degree: pick.Intn(4), Inout: core.InoutMode(pick.Intn(2)),
			CostScale: scales[pick.Intn(len(scales))], App: apps[pick.Intn(len(apps))],
			Fault: schedule(),
		}
		if pick.Intn(3) > 0 {
			s.Net = nets[pick.Intn(len(nets))]
		}
		if pick.Intn(3) > 0 {
			s.Machine = machines[pick.Intn(len(machines))]
		}
		if pick.Intn(2) == 0 {
			s.Replay = trace
		}
		return s
	}
	check := func(what string, s Spec) {
		t.Helper()
		got, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if want := marshaledKey(t, s); got != want {
			t.Fatalf("%s: Key %s, marshaled %s", what, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		s := random()
		check("fresh", s)
		s.key = &keyTemplate{fields: s.keyFields()}
		check("template", s)
		// A copy changing only what trials change keys from the template.
		c := s
		c.Name, c.Fault, c.Replay = "trial", schedule(), nil
		if pick.Intn(2) == 0 {
			c.Replay = trace
		}
		check("trial copy", c)
		// A copy changing a templated field must not key from it.
		o := random()
		c.Mode, c.Degree, c.Inout, c.CostScale = o.Mode, o.Degree, o.Inout, o.CostScale
		if pick.Intn(2) == 0 {
			c.Net, c.Machine, c.App, c.Logical = o.Net, o.Machine, o.App, o.Logical
		}
		check("changed copy", c)
	}
	// Every signed-zero pair, templated one way and keyed the other.
	for _, a := range []float64{0, math.Copysign(0, -1)} {
		for _, b := range []float64{0, math.Copysign(0, -1)} {
			s := Spec{Mode: Classic, Logical: 2, App: apps[0], CostScale: a}
			s.Net, s.Machine = DefaultPlatform()
			s.key = &keyTemplate{fields: s.keyFields()}
			s.CostScale = b
			check("cost scale sign", s)
			s.CostScale = 1
			s.Net.Bandwidth, s.Machine.FlopsPerCore = a, a
			s.key = &keyTemplate{fields: s.keyFields()}
			s.Net.Bandwidth, s.Machine.FlopsPerCore = b, b
			check("platform sign", s)
		}
	}
}

func sortedValues[T any](m map[string]T) []T {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	out := make([]T, len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}
