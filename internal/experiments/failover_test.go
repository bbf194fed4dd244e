package experiments

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// paperSpec is app's paper-scale configuration at two iterations on 4
// logical ranks, the shape the failover and replay oracles run.
func paperSpec(t *testing.T, app string, mode Mode, degree int, inout string) Spec {
	t.Helper()
	ent, err := scenario.AppByName(app)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.Scenario{
		Name: app, App: app, Config: scenario.MustRaw(ent.Paper(2, 0)),
		Mode: mode, Logical: 4, Degree: degree,
	}
	if inout != "" {
		sc.Intra = &scenario.IntraOptions{Inout: inout}
	}
	s, err := SpecFor(sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDegree3CoverDeathReplaysInheritedLanes pins two schedules that kill
// two lanes of one logical rank at degree 3, the second death striking the
// lowest alive lane. That replica covered the lane that died first, so the
// new cover inherits both lanes and must replay its send log toward each.
// Replaying toward the dying replica's own lane only left the first lane's
// receivers without the new cover's earlier sends, and the run deadlocked.
func TestDegree3CoverDeathReplaysInheritedLanes(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		first fault.Crash
		last  fault.Crash
	}{
		// The second crash lands 1 ns before the fault-free end.
		{"hpccg/classic", paperSpec(t, "hpccg", Classic, 3, ""),
			fault.Crash{Logical: 1, Lane: 2, Time: 122396 * sim.Microsecond},
			fault.Crash{Logical: 1, Lane: 0, Time: 1005549941}},
		{"gtc/intra/copy", paperSpec(t, "gtc", Intra, 3, "copy"),
			fault.Crash{Logical: 3, Lane: 0, Time: 5652726},
			fault.Crash{Logical: 3, Lane: 1, Time: 18862923}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ff, err := run(nil, nil, tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := tc.spec
			s.Fault = &fault.Schedule{Crashes: []fault.Crash{tc.first, tc.last}}
			r, err := run(nil, nil, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.Measure.Wall < ff.Measure.Wall {
				t.Fatalf("crashed run ends at %d ns, before the fault-free %d ns", r.Measure.Wall, ff.Measure.Wall)
			}
			t.Logf("fault-free %d ns, crashed %d ns", ff.Measure.Wall, r.Measure.Wall)
		})
	}
}
