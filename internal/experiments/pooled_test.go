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
// point runs twice, executed and replaying the recorded trace, the path
// every crashed campaign trial and jobstream job takes. Beyond HPCCG at
// four logical ranks the grid holds what the worker's recycled rank
// states, procs and runners must survive:
//   - GTC under classic and both inout modes: its push is the one section
//     with inout arguments, so copy-restore snapshots are taken and
//     restored on recycled task records;
//   - HPCCG at a second logical size, so the worker changes shape mid-grid;
//   - classic replication at degree 3;
//   - after the shuffle, crashed replays of one shape in a row, the way a
//     campaign point's trials reach a worker.
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
		{Name: "intra-p2", Mode: Intra, Logical: 2, App: HPCCG(cfg)},
		{Name: "classic-d3", Mode: Classic, Logical: 4, Degree: 3, App: HPCCG(cfg)},
	}
	// crashed appends s under schedule fs, executed and replaying ts.
	crashed := func(s Spec, fs *fault.Schedule, ts *core.TraceSet) {
		s.Fault = fs
		specs = append(specs, s)
		s.Name, s.Replay = s.Name+"-replayed", ts
		specs = append(specs, s)
	}
	for trial := 0; trial < 4; trial++ {
		d := fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(7, 0, trial))
		crashed(Spec{Name: "classic-faulty", Mode: Classic, Logical: 4, App: HPCCG(cfg)}, d.Schedule, ts)
	}
	for trial := 0; trial < 4; trial++ {
		degree, inout := 2+trial%2, core.InoutMode(trial/2)
		d := fault.ExponentialDraw(4, degree, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(11, degree, trial))
		s := Spec{Name: "intra-faulty", Mode: Intra, Logical: 4, Degree: degree, Inout: inout, App: HPCCG(cfg)}
		rec, err := RecordTraces(s)
		if err != nil {
			t.Fatal(err)
		}
		crashed(s, d.Schedule, rec)
	}
	for trial := 0; trial < 2; trial++ {
		p2 := Spec{Name: "intra-p2-faulty", Mode: Intra, Logical: 2, Inout: core.InoutMode(trial), App: HPCCG(cfg)}
		rec, err := RecordTraces(p2)
		if err != nil {
			t.Fatal(err)
		}
		d := fault.ExponentialDraw(2, 2, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(13, 0, trial))
		crashed(p2, d.Schedule, rec)
		d3 := Spec{Name: "classic-d3-faulty", Mode: Classic, Logical: 4, Degree: 3, App: HPCCG(cfg)}
		if rec, err = RecordTraces(d3); err != nil {
			t.Fatal(err)
		}
		d = fault.ExponentialDraw(4, 3, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(17, 0, trial))
		crashed(d3, d.Schedule, rec)
	}
	rng := rand.New(rand.NewSource(5))
	for _, en := range oracleEngines {
		g := paperSpec(t, "gtc", en.mode, 2, en.inout)
		g.Name = "gtc-" + en.mode.String() + en.inout
		rec, err := RecordTraces(g)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := run(nil, nil, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, g)
		// The last two schedules are random; the first is a crash at 0.
		fss := survivableSchedules(rng, g.Logical, 2, ff.Measure.Wall, 2)
		for _, fs := range append(fss[:1:1], fss[len(fss)-2:]...) {
			crashed(g, fs, rec)
		}
	}
	specs = append(specs, Spec{
		Name: "intra-crash-at-0", Mode: Intra, Logical: 4, Inout: core.AtomicApply, App: HPCCG(cfg),
		Fault: &fault.Schedule{Crashes: []fault.Crash{{Logical: 2, Lane: 0, Time: 0}}},
	})
	shuffle := rand.New(rand.NewSource(99))
	shuffle.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	// A campaign point's trials: one shape, crashed replays back to back.
	intra := Spec{Name: "intra-trial", Mode: Intra, Logical: 4, App: HPCCG(cfg), Replay: ts}
	classic := Spec{Name: "classic-trial", Mode: Classic, Logical: 4, App: HPCCG(cfg), Replay: ts}
	for trial := 0; trial < 4; trial++ {
		d := fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(19, 0, trial))
		intra.Fault = d.Schedule
		specs = append(specs, intra)
	}
	for trial := 0; trial < 4; trial++ {
		d := fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(23, 0, trial))
		classic.Fault = d.Schedule
		specs = append(specs, classic)
	}
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

// TestWorkerReleasesFinishedTrial is mpi's TestScratchReleasesReclaimedWorld
// one layer up: once a worker has run a crashed replicated trial — send
// logs, failover, recovery rounds — and handed the cluster back as
// Worker.run does (Cluster.Reclaim, then the engine's Reset), the trial's
// world must be garbage while the worker, its engine and its scratch with
// the recycled rank states, procs and runners live on. A recycled object
// still pointing into the trial (a proc's rank or system, a runner's
// replica, a rank state's world, an armed kill) would keep the world, and
// everything it references, alive for as long as the worker.
func TestWorkerReleasesFinishedTrial(t *testing.T) {
	s := Spec{Name: "trial", Mode: Intra, Logical: 4, App: HPCCG(smallHPCCG(3))}
	ts, err := RecordTraces(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Replay = ts
	s.Fault = fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), 3).Schedule
	var w Worker
	defer w.close()
	want, err := w.run(s, nil) // warms the worker's scratch
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		c, err := NewCluster(ClusterConfig{
			Logical: s.Logical, Mode: s.Mode, SendLog: true,
			Engine: w.eng, Scratch: w.sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(c.W, func(ch chan struct{}) { close(ch) }, collected)
		s.Fault.Install(c.E, c.Sys)
		main := replayMain(ts)
		c.Launch(func(rt core.Runner) {
			if _, _, _, err := main(rt); err != nil {
				t.Error(err)
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if c.Sys.Epoch() == 0 {
			t.Fatal("the schedule crashed no replica")
		}
		c.Reclaim()
		w.eng.Reset()
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(20 * time.Millisecond):
			if i < 10 {
				continue
			}
			t.Fatal("the finished trial's world is still reachable from its worker after 10 forced GCs")
		}
		break
	}
	// The worker lives on, and its recycled state still runs the trial as
	// it did the first time.
	got, err := w.run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalize(t, []Result{got}), canonicalize(t, []Result{want}); g != w {
		t.Fatalf("the worker's next trial diverges:\n%s\nvs\n%s", g, w)
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
