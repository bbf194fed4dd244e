package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// pooledGrid is a small mixed grid — all three engine modes plus faulty
// classic and intra points — shuffled with a fixed seed so the pooled
// engine sees modes in an adversarial order (intra after classic after
// native, faulty between clean) rather than the friendly grouped order of
// a real sweep. The faulty intra points, at degrees 2 and 3 under both
// inout modes, run the recycled update messages, requests and retired
// update channels through crashes mid-section and at time 0. Each faulty
// classic and intra point runs twice, executed and replaying the recorded
// trace, the path every crashed campaign trial and jobstream job takes.
func pooledGrid(t *testing.T) []Spec {
	cfg := smallHPCCG(3)
	ts, err := RecordTraces(Spec{Name: "classic", Mode: Classic, Logical: 4, App: HPCCG(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Name: "native", Mode: Native, Logical: 8, App: HPCCG(cfg)},
		{Name: "classic", Mode: Classic, Logical: 4, App: HPCCG(cfg)},
		{Name: "intra", Mode: Intra, Logical: 4, App: HPCCG(cfg)},
		{Name: "intra-d3", Mode: Intra, Logical: 4, Degree: 3, App: HPCCG(cfg)},
	}
	for trial := 0; trial < 4; trial++ {
		d := fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(7, 0, trial))
		s := Spec{
			Name: "classic-faulty", Mode: Classic, Logical: 4,
			App: HPCCG(cfg), Fault: d.Schedule,
		}
		specs = append(specs, s)
		s.Name, s.Replay = "classic-replayed", ts
		specs = append(specs, s)
	}
	for trial := 0; trial < 4; trial++ {
		degree, inout := 2+trial%2, core.InoutMode(trial/2)
		d := fault.ExponentialDraw(4, degree, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(11, degree, trial))
		s := Spec{
			Name: "intra-faulty", Mode: Intra, Logical: 4, Degree: degree, Inout: inout,
			App: HPCCG(cfg), Fault: d.Schedule,
		}
		specs = append(specs, s)
		if s.Replay, err = RecordTraces(s); err != nil {
			t.Fatal(err)
		}
		s.Name = "intra-replayed"
		specs = append(specs, s)
	}
	specs = append(specs, Spec{
		Name: "intra-crash-at-0", Mode: Intra, Logical: 4, Inout: core.AtomicApply, App: HPCCG(cfg),
		Fault: &fault.Schedule{Crashes: []fault.Crash{{Logical: 2, Lane: 0, Time: 0}}},
	})
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// TestPooledEngineRerunByteIdentical is the pooling property test: the
// shuffled grid run twice back-to-back on ONE pooled engine and scratch
// (every spec after the first inherits warm event nodes, parked goroutines
// and message pools from arbitrary predecessors) must produce Results
// byte-identical to a run where every spec gets a brand-new engine. Any
// state leaking across Engine.Reset or World.Reclaim shows up here as a
// diverging wall time or event count.
func TestPooledEngineRerunByteIdentical(t *testing.T) {
	specs := pooledGrid(t)

	fresh := make([]Result, len(specs))
	for i, s := range specs {
		r, err := runSpec(nil, nil, s)
		if err != nil {
			t.Fatalf("fresh %q: %v", s.Name, err)
		}
		fresh[i] = r
	}
	want := canonicalize(t, fresh)

	eng := sim.NewPooled()
	defer eng.Shutdown()
	sc := mpi.NewScratch()
	for pass := 0; pass < 2; pass++ {
		got := make([]Result, len(specs))
		for i, s := range specs {
			eng.Reset()
			r, err := runSpec(eng, sc, s)
			if err != nil {
				t.Fatalf("pooled pass %d %q: %v", pass, s.Name, err)
			}
			got[i] = r
		}
		if g := canonicalize(t, got); g != want {
			t.Fatalf("pooled pass %d diverges from fresh-engine run:\n%s\nvs\n%s", pass, g, want)
		}
	}
}
