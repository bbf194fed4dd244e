package experiments

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
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
// shuffled grid run twice back-to-back on ONE worker, the pooled engine
// and scratch every ForEach caller's simulations run on (every spec after
// the first inherits warm event nodes, parked goroutines and message pools
// from arbitrary predecessors), must produce Results byte-identical to a
// run where every spec gets a brand-new engine. Any state leaking across
// Engine.Reset or World.Reclaim shows up here as a diverging wall time or
// event count.
func TestPooledEngineRerunByteIdentical(t *testing.T) {
	specs := pooledGrid(t)

	fresh := make([]Result, len(specs))
	for i, s := range specs {
		r, err := run(nil, nil, s, nil)
		if err != nil {
			t.Fatalf("fresh %q: %v", s.Name, err)
		}
		fresh[i] = r
	}
	want := canonicalize(t, fresh)

	var w Worker
	defer w.close()
	for pass := 0; pass < 2; pass++ {
		got := make([]Result, len(specs))
		for i, s := range specs {
			r, err := w.run(s, nil)
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

// TestForEachWorkerLifecycle pins when a Worker's engine exists:
//   - one worker's consecutive specs run on one engine, with results
//     byte-identical to fresh engines';
//   - a fan-out whose specs all hit the store creates no engine, and its
//     store hits record no traces;
//   - once ForEach returns, every goroutine it started has ended, the
//     pooled engines' process goroutines included.
func TestForEachWorkerLifecycle(t *testing.T) {
	specs := smallSpecs()
	fresh := make([]Result, len(specs))
	for i, s := range specs {
		r, err := run(nil, nil, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = r
	}
	want := canonicalize(t, fresh)
	base := runtime.NumGoroutine()

	got := make([]Result, len(specs))
	engines := map[*sim.Engine]bool{}
	ForEach(1, len(specs), func(w *Worker, i int) {
		r, err := w.run(specs[i], nil)
		if err != nil {
			t.Error(err)
		}
		got[i] = r
		engines[w.eng] = true
	})
	if len(engines) != 1 {
		t.Fatalf("one worker ran its %d specs on %d engines", len(specs), len(engines))
	}
	if g := canonicalize(t, got); g != want {
		t.Fatalf("worker results diverge from fresh engines':\n%s\nvs\n%s", g, want)
	}
	waitGoroutines(t, base)

	st := openStore(t, t.TempDir(), "lifecycle")
	if _, err := SweepStore(2, st, specs); err != nil {
		t.Fatal(err)
	}
	base = runtime.NumGoroutine()
	ForEach(2, len(specs), func(w *Worker, i int) {
		key, err := specs[i].Key()
		if err != nil {
			t.Error(err)
			return
		}
		r, ts, err := w.RunStored(st, key, specs[i], true)
		if err != nil {
			t.Error(err)
		}
		if w.eng != nil || ts != nil {
			t.Errorf("store hit %q: engine %v, traces %v; want neither", specs[i].Name, w.eng, ts)
		}
		got[i] = r
	})
	if g := canonicalize(t, got); g != want {
		t.Fatalf("store hits diverge from fresh engines':\n%s\nvs\n%s", g, want)
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a second: an exited goroutine may take a moment to leave
// the count after the WaitGroup that tracked it is released.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after ForEach returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
