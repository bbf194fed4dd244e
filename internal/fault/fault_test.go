package fault_test

import (
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/replication"
	"repro/internal/sim"
)

func TestPointStrings(t *testing.T) {
	for _, p := range []fault.Point{fault.BeforeExec, fault.AfterExec, fault.MidUpdate, fault.Point(9)} {
		if p.String() == "" {
			t.Fatal("empty point name")
		}
	}
}

func TestExponentialScheduleProperties(t *testing.T) {
	s := fault.Exponential(64, 2, sim.Second, 10*sim.Second, 42)
	perLogical := map[int]int{}
	for _, c := range s.Crashes {
		if c.Time < 0 || c.Time >= 10*sim.Second {
			t.Fatalf("crash outside horizon: %+v", c)
		}
		perLogical[c.Logical]++
	}
	for r, n := range perLogical {
		if n >= 2 {
			t.Fatalf("logical %d loses all replicas (%d crashes)", r, n)
		}
	}
	// Deterministic in seed.
	s2 := fault.Exponential(64, 2, sim.Second, 10*sim.Second, 42)
	if len(s.Crashes) != len(s2.Crashes) {
		t.Fatal("schedule not deterministic")
	}
	if len(s.Crashes) == 0 {
		t.Fatal("expected some crashes with MTBF=1s over 10s")
	}
}

// TestExponentialDrawHighRate hammers the generator with MTBF three orders
// of magnitude under the horizon: every logical rank must keep one live
// replica, the clamp must report what it suppressed, and the draw must stay
// deterministic and consistent with Exponential.
func TestExponentialDrawHighRate(t *testing.T) {
	for _, degree := range []int{2, 3} {
		for seed := int64(1); seed <= 20; seed++ {
			d := fault.ExponentialDraw(32, degree, sim.Millisecond, sim.Second, seed)
			perLogical := map[int]int{}
			for _, c := range d.Schedule.Crashes {
				perLogical[c.Logical]++
			}
			for r, n := range perLogical {
				if n > degree-1 {
					t.Fatalf("degree %d seed %d: logical %d loses all replicas (%d kills)", degree, seed, r, n)
				}
			}
			if d.Suppressed == 0 {
				t.Fatalf("degree %d seed %d: MTBF/horizon = 1/1000 must suppress kills", degree, seed)
			}
			if len(d.Schedule.Crashes)+d.Suppressed != 32*degree {
				t.Fatalf("degree %d seed %d: %d crashes + %d suppressed != %d draws",
					degree, seed, len(d.Schedule.Crashes), d.Suppressed, 32*degree)
			}
			s := fault.Exponential(32, degree, sim.Millisecond, sim.Second, seed)
			if s.Fingerprint() != d.Schedule.Fingerprint() {
				t.Fatalf("degree %d seed %d: Exponential and ExponentialDraw disagree", degree, seed)
			}
		}
	}
}

// TestScheduleFingerprint: empty schedules (and nil) key to "", distinct
// schedules to distinct keys, equal schedules to equal keys.
func TestScheduleFingerprint(t *testing.T) {
	var nilSched *fault.Schedule
	if nilSched.Fingerprint() != "" || (&fault.Schedule{}).Fingerprint() != "" {
		t.Fatal("empty schedule must fingerprint to \"\"")
	}
	a := fault.Exponential(8, 2, 10*sim.Millisecond, sim.Second, 1)
	b := fault.Exponential(8, 2, 10*sim.Millisecond, sim.Second, 1)
	c := fault.Exponential(8, 2, 10*sim.Millisecond, sim.Second, 2)
	if a.Fingerprint() == "" || a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal draws must share a fingerprint")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds should not collide (these draws differ)")
	}
}

// TestScheduleFingerprintOrderInsensitive is the regression test for the
// memo-defeating order sensitivity: the same crashes in a different slice
// order arm identical events, so they must produce the same key.
func TestScheduleFingerprintOrderInsensitive(t *testing.T) {
	s := fault.Exponential(16, 2, 20*sim.Millisecond, sim.Second, 3)
	if len(s.Crashes) < 3 {
		t.Fatalf("draw too small to shuffle (%d crashes)", len(s.Crashes))
	}
	shuffled := &fault.Schedule{Crashes: append([]fault.Crash(nil), s.Crashes...)}
	for i := range shuffled.Crashes { // deterministic reversal, no rng needed
		j := len(shuffled.Crashes) - 1 - i
		if i >= j {
			break
		}
		shuffled.Crashes[i], shuffled.Crashes[j] = shuffled.Crashes[j], shuffled.Crashes[i]
	}
	if s.Fingerprint() != shuffled.Fingerprint() {
		t.Fatal("shuffled schedule fingerprints differently: the sweep memo treats equal schedules as distinct")
	}
	// Sorting is on a copy: the caller's slice order is untouched.
	if shuffled.Crashes[0] == s.Crashes[0] && len(s.Crashes) > 1 {
		t.Fatal("test is vacuous: shuffle did not change the order")
	}
}

// TestExponentialDrawLaneBias pins the survivability clamp's lane choice:
// lanes draw in index order, so when every lane of a rank would crash the
// recorded kills are the lower-indexed lanes and the highest-indexed lane
// is the spared survivor. This is a deliberate, documented choice — see
// ExponentialDraw — not an accident; changing it silently would reshuffle
// every drawn schedule.
func TestExponentialDrawLaneBias(t *testing.T) {
	// MTBF three orders of magnitude under the horizon: every lane draws a
	// crash inside the window with overwhelming probability.
	for seed := int64(1); seed <= 10; seed++ {
		d := fault.ExponentialDraw(16, 2, sim.Millisecond, sim.Second, seed)
		for _, c := range d.Schedule.Crashes {
			if c.Lane != 0 {
				t.Fatalf("seed %d: clamp spared lane 0 of rank %d (killed lane %d); the survivor must be the highest lane",
					seed, c.Logical, c.Lane)
			}
		}
		if len(d.Schedule.Crashes) != 16 || d.Suppressed != 16 {
			t.Fatalf("seed %d: %d crashes, %d suppressed; want 16/16 at this rate",
				seed, len(d.Schedule.Crashes), d.Suppressed)
		}
	}
}

// TestExponentialDrawUnclamped covers the cCR failure model: repeated
// failures per slot, no survivability clamp, canonical crash order, and
// prefix stability under horizon growth.
func TestExponentialDrawUnclamped(t *testing.T) {
	d := fault.ExponentialDrawUnclamped(4, 1, 10*sim.Millisecond, sim.Second, 7)
	if d.Suppressed != 0 {
		t.Fatalf("unclamped draw suppressed %d kills", d.Suppressed)
	}
	perSlot := map[int]int{}
	for i, c := range d.Schedule.Crashes {
		if c.Time < 0 || c.Time >= sim.Second {
			t.Fatalf("crash outside horizon: %+v", c)
		}
		perSlot[c.Logical]++
		if i > 0 && d.Schedule.Crashes[i-1].Time > c.Time {
			t.Fatal("crashes not sorted by time")
		}
	}
	repeated := 0
	for _, n := range perSlot {
		if n > 1 {
			repeated++
		}
	}
	// ~100 expected failures per slot: every slot fails many times.
	if repeated != 4 {
		t.Fatalf("only %d of 4 slots failed repeatedly at MTBF << horizon", repeated)
	}

	// Deterministic in seed; different seeds draw different traces.
	d2 := fault.ExponentialDrawUnclamped(4, 1, 10*sim.Millisecond, sim.Second, 7)
	if d.Schedule.Fingerprint() != d2.Schedule.Fingerprint() {
		t.Fatal("unclamped draw not deterministic")
	}
	if d.Schedule.Fingerprint() == fault.ExponentialDrawUnclamped(4, 1, 10*sim.Millisecond, sim.Second, 8).Schedule.Fingerprint() {
		t.Fatal("different seeds collide")
	}

	// Prefix property: a larger horizon must reproduce every crash of the
	// smaller window exactly, then extend it.
	small := fault.ExponentialDrawUnclamped(4, 1, 10*sim.Millisecond, sim.Second, 7)
	big := fault.ExponentialDrawUnclamped(4, 1, 10*sim.Millisecond, 2*sim.Second, 7)
	var bigPrefix []fault.Crash
	for _, c := range big.Schedule.Crashes {
		if c.Time < sim.Second {
			bigPrefix = append(bigPrefix, c)
		}
	}
	if len(bigPrefix) != len(small.Schedule.Crashes) {
		t.Fatalf("horizon growth changed the small window: %d vs %d crashes",
			len(bigPrefix), len(small.Schedule.Crashes))
	}
	for i, c := range small.Schedule.Crashes {
		if bigPrefix[i] != c {
			t.Fatalf("crash %d differs after horizon growth: %+v vs %+v", i, c, bigPrefix[i])
		}
	}
	if len(big.Schedule.Crashes) <= len(small.Schedule.Crashes) {
		t.Fatal("doubled horizon drew no additional failures")
	}
}

// TestTrialSeedDerivation: the (base, scenario, trial) -> seed map is
// stable and collision-free over a realistic campaign envelope.
func TestTrialSeedDerivation(t *testing.T) {
	if fault.TrialSeed(7, 3, 11) != fault.TrialSeed(7, 3, 11) {
		t.Fatal("TrialSeed must be deterministic")
	}
	seen := map[int64]bool{}
	for sc := 0; sc < 20; sc++ {
		for tr := 0; tr < 200; tr++ {
			s := fault.TrialSeed(1, sc, tr)
			if seen[s] {
				t.Fatalf("seed collision at scenario %d trial %d", sc, tr)
			}
			seen[s] = true
		}
	}
}

// TestCrashPlanReset is the regression test for the stateful-plan bug: a
// CrashPlan reused across runs kept count/fired from the first run and
// never crashed again. Reset re-arms it.
func TestCrashPlanReset(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 4

	plan := &fault.CrashPlan{Point: fault.BeforeExec, Nth: 5}
	runWithPlan := func() int {
		c := newCluster(t, experiments.ClusterConfig{
			Logical: 2, Mode: experiments.Intra, SendLog: true,
		})
		c.Sys.Launch("app", func(p *replication.Proc) {
			opts := core.Options{}
			if p.Logical == 0 && p.Lane == 0 {
				opts.Hooks = plan.Hooks(p)
			}
			rt := core.NewIntra(p, opts)
			if _, err := hpccg.Run(rt, cfg); err != nil {
				t.Errorf("run: %v", err)
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Sys.Epoch()
	}

	if got := runWithPlan(); got != 1 {
		t.Fatalf("first run: %d deaths, want 1", got)
	}
	// Without Reset the plan stays fired: the second run sees no crash.
	// (That silent no-op is exactly what a reused/memoized plan hits.)
	if got := runWithPlan(); got != 0 {
		t.Fatalf("stale plan fired again: %d deaths, want 0", got)
	}
	plan.Reset()
	if got := runWithPlan(); got != 1 {
		t.Fatalf("after Reset: %d deaths, want 1", got)
	}
}

// TestCrashPlanMatrix drives HPCCG through every §III-B2 protocol point on
// both lanes of rank 0 and both inout modes and checks the survivors
// compute the failure-free residual bit for bit.
func TestCrashPlanMatrix(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 6

	// Failure-free reference.
	var ref float64
	_, err := experiments.RunProgram(experiments.ClusterConfig{Logical: 2, Mode: experiments.Intra},
		func(rt core.Runner) {
			res, err := hpccg.Run(rt, cfg)
			if err != nil {
				t.Errorf("ref: %v", err)
				return
			}
			ref = res.Residual
		})
	if err != nil {
		t.Fatal(err)
	}

	for _, point := range []fault.Point{fault.BeforeExec, fault.AfterExec, fault.MidUpdate} {
		for _, lane := range []int{0, 1} {
			for _, mode := range []core.InoutMode{core.CopyRestore, core.AtomicApply} {
				name := point.String() + "/" + mode.String()
				c := newCluster(t, experiments.ClusterConfig{
					Logical: 2, Mode: experiments.Intra, SendLog: true,
				})
				plan := &fault.CrashPlan{Point: point, Nth: 7}
				lane := lane
				c.Sys.Launch("app", func(p *replication.Proc) {
					opts := core.Options{Mode: mode}
					if p.Logical == 0 && p.Lane == lane {
						opts.Hooks = plan.Hooks(p)
					}
					rt := core.NewIntra(p, opts)
					res, err := hpccg.Run(rt, cfg)
					if err != nil {
						t.Errorf("%s lane %d: %v", name, lane, err)
						return
					}
					if res.Residual != ref {
						t.Errorf("%s lane %d: residual %v != ref %v", name, lane, res.Residual, ref)
					}
				})
				if _, err := c.Run(); err != nil {
					t.Fatalf("%s lane %d: %v", name, lane, err)
				}
			}
		}
	}
}

// TestExponentialFailuresDuringRun injects an MTBF-driven schedule and
// checks the run completes with correct numerics.
func TestExponentialFailuresDuringRun(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 8

	var ref float64
	if _, err := experiments.RunProgram(experiments.ClusterConfig{Logical: 4, Mode: experiments.Intra},
		func(rt core.Runner) {
			res, err := hpccg.Run(rt, cfg)
			if err == nil {
				ref = res.Residual
			}
		}); err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 5; seed++ {
		c := newCluster(t, experiments.ClusterConfig{
			Logical: 4, Mode: experiments.Intra, SendLog: true,
		})
		sched := fault.Exponential(4, 2, 50*sim.Millisecond, 200*sim.Millisecond, seed)
		sched.Install(c.E, c.Sys)
		bad := false
		c.Launch(func(rt core.Runner) {
			res, err := hpccg.Run(rt, cfg)
			if err != nil {
				t.Errorf("seed %d rank %d: %v", seed, rt.LogicalRank(), err)
				return
			}
			if res.Residual != ref {
				bad = true
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if bad {
			t.Fatalf("seed %d: wrong numerics under failures %v", seed, sched.Crashes)
		}
	}
}

// TestDenseCrashSweep slides a single crash across the whole runtime of a
// short HPCCG execution in fine steps, so failures land inside sections,
// collectives, and halo exchanges alike.
func TestDenseCrashSweep(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 4

	var ref float64
	var horizon sim.Time
	if _, err := experiments.RunProgram(experiments.ClusterConfig{Logical: 2, Mode: experiments.Intra},
		func(rt core.Runner) {
			res, err := hpccg.Run(rt, cfg)
			if err != nil {
				t.Errorf("ref: %v", err)
				return
			}
			ref = res.Residual
			if rt.Now() > horizon {
				horizon = rt.Now()
			}
		}); err != nil {
		t.Fatal(err)
	}

	steps := 40
	for i := 0; i < steps; i++ {
		at := horizon * sim.Time(i) / sim.Time(steps)
		lane := i % 2
		c := newCluster(t, experiments.ClusterConfig{
			Logical: 2, Mode: experiments.Intra, SendLog: true,
		})
		fault.At(c.E, c.Sys, 1, lane, at)
		c.Launch(func(rt core.Runner) {
			res, err := hpccg.Run(rt, cfg)
			if err != nil {
				t.Errorf("crash at %v lane %d: rank %d: %v", at, lane, rt.LogicalRank(), err)
				return
			}
			if res.Residual != ref {
				t.Errorf("crash at %v lane %d: residual %v != %v", at, lane, res.Residual, ref)
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatalf("crash at %v lane %d: %v", at, lane, err)
		}
	}
}

// newCluster builds a cluster from a known-good test config, failing the
// test on a validation error.
func newCluster(t *testing.T, cfg experiments.ClusterConfig) *experiments.Cluster {
	t.Helper()
	c, err := experiments.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestInstallCanonicalOrder: the engine breaks equal-time event ties by
// insertion order, so Install must arm crashes in the same canonical
// order Fingerprint keys by — otherwise two set-equal schedules (which
// now share a sweep-memo key) could simulate differently.
func TestInstallCanonicalOrder(t *testing.T) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = 4

	run := func(crashes []fault.Crash) sim.Time {
		c := newCluster(t, experiments.ClusterConfig{
			Logical: 2, Mode: experiments.Intra, SendLog: true,
		})
		sched := &fault.Schedule{Crashes: crashes}
		sched.Install(c.E, c.Sys)
		c.Launch(func(rt core.Runner) {
			if _, err := hpccg.Run(rt, cfg); err != nil {
				t.Errorf("rank %d: %v", rt.LogicalRank(), err)
			}
		})
		wall, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return wall
	}

	at := 5 * sim.Millisecond // mid-run, same instant for both crashes
	fwd := []fault.Crash{{Logical: 0, Lane: 0, Time: at}, {Logical: 1, Lane: 1, Time: at}}
	rev := []fault.Crash{{Logical: 1, Lane: 1, Time: at}, {Logical: 0, Lane: 0, Time: at}}
	if (&fault.Schedule{Crashes: fwd}).Fingerprint() != (&fault.Schedule{Crashes: rev}).Fingerprint() {
		t.Fatal("set-equal schedules must share a fingerprint")
	}
	if wf, wr := run(fwd), run(rev); wf != wr {
		t.Fatalf("slice order changed the simulation: wall %v vs %v", wf, wr)
	}
}
