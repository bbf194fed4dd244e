package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// harness builds a replicated world for core tests.
type harness struct {
	e   *sim.Engine
	w   *mpi.World
	sys *replication.System
}

func newHarness(t *testing.T, logical, degree int) *harness {
	t.Helper()
	e := sim.New()
	cfg := simnet.Config{
		Latency:        sim.Micros(1),
		Bandwidth:      1e9,
		LocalLatency:   sim.Micros(0.1),
		LocalBandwidth: 1e10,
		CoresPerNode:   2,
	}
	n := logical * degree
	nodes := (n + cfg.CoresPerNode - 1) / cfg.CoresPerNode
	net := simnet.New(e, cfg, nodes)
	w := mpi.NewWorld(e, net, n, perf.Grid5000, nil)
	sys := replication.New(w, replication.Config{Logical: logical, Degree: degree, SendLog: true})
	return &harness{e: e, w: w, sys: sys}
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	if err := h.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// waxpbyTask is the paper's running example (Figure 4): w = alpha*x+beta*y.
func waxpbyTask(c Ctx, args []Value) {
	alpha := *args[0].(Scalar).P
	x := args[1].(Float64s)
	beta := *args[2].(Scalar).P
	y := args[3].(Float64s)
	w := args[4].(Float64s)
	for i := range w {
		w[i] = alpha*x[i] + beta*y[i]
	}
	c.Compute(perf.Work{Bytes: 24 * float64(len(w)), Flops: 3 * float64(len(w))})
}

// runWaxpbySection runs one intra-parallelized waxpby over nTasks tasks and
// returns the resulting w vector. Mirrors Figure 4 of the paper.
func runWaxpbySection(rt Runner, n, nTasks int) (Float64s, error) {
	alpha, beta := 2.0, 3.0
	x := make(Float64s, n)
	y := make(Float64s, n)
	w := make(Float64s, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(2 * i)
	}
	rt.SectionBegin()
	id := rt.TaskRegister(waxpbyTask, In, In, In, In, Out)
	ts := n / nTasks
	for i := 0; i < nTasks; i++ {
		rt.TaskLaunch(id,
			Scalar{&alpha}, x[i*ts:(i+1)*ts],
			Scalar{&beta}, y[i*ts:(i+1)*ts],
			w[i*ts:(i+1)*ts])
	}
	return w, rt.SectionEnd()
}

func checkWaxpby(t *testing.T, w Float64s, who string) {
	t.Helper()
	for i, v := range w {
		want := 2.0*float64(i) + 3.0*float64(2*i)
		if v != want {
			t.Fatalf("%s: w[%d] = %v, want %v", who, i, v, want)
		}
	}
}

func TestIntraSectionSharesWork(t *testing.T) {
	h := newHarness(t, 1, 2)
	stats := map[int]*Stats{}
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewIntra(p, Options{})
		w, err := runWaxpbySection(rt, 64, 8)
		if err != nil {
			t.Errorf("section: %v", err)
			return
		}
		checkWaxpby(t, w, "replica")
		stats[p.Lane] = rt.Stats()
	})
	h.run(t)
	for lane := 0; lane < 2; lane++ {
		st := stats[lane]
		if st.TasksRun != 4 || st.TasksReceived != 4 {
			t.Fatalf("lane %d: run=%d received=%d, want 4/4 (paper's static split)",
				lane, st.TasksRun, st.TasksReceived)
		}
		if st.Sections != 1 || st.UpdateBytes == 0 {
			t.Fatalf("lane %d stats: %+v", lane, st)
		}
	}
}

func TestIntraFasterThanClassicForComputeBoundTasks(t *testing.T) {
	// A compute-heavy task with a tiny output (like ddot) must run close to
	// twice as fast under intra as under classic replication.
	heavy := func(c Ctx, args []Value) {
		s := args[1].(Scalar)
		*s.P = float64(len(args[0].(Float64s)))
		c.Compute(perf.Work{Flops: 2e8}) // 100 ms at 2 Gflop/s
	}
	runOnce := func(mode string) sim.Time {
		h := newHarness(t, 1, 2)
		var end sim.Time
		h.sys.Launch("app", func(p *replication.Proc) {
			var rt Runner
			if mode == "intra" {
				rt = NewIntra(p, Options{})
			} else {
				rt = NewClassic(p)
			}
			data := make(Float64s, 4)
			outs := make([]float64, 8)
			rt.SectionBegin()
			id := rt.TaskRegister(heavy, In, Out)
			for i := 0; i < 8; i++ {
				rt.TaskLaunch(id, data, Scalar{&outs[i]})
			}
			if err := rt.SectionEnd(); err != nil {
				t.Errorf("section: %v", err)
			}
			if end < rt.Now() {
				end = rt.Now()
			}
		})
		h.run(t)
		return end
	}
	classic := runOnce("classic")
	intra := runOnce("intra")
	ratio := float64(intra) / float64(classic)
	if ratio > 0.55 {
		t.Fatalf("intra/classic = %.3f, want ~0.5 (classic=%v intra=%v)", ratio, classic, intra)
	}
}

func TestNativeRunnerExecutesLocally(t *testing.T) {
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 1)
	w := mpi.NewWorld(e, net, 1, perf.Grid5000, nil)
	w.Launch("native", 0, func(r *mpi.Rank) {
		rt := NewNative(r)
		if rt.Mode() != "native" {
			t.Errorf("mode = %s", rt.Mode())
		}
		wv, err := runWaxpbySection(rt, 32, 8)
		if err != nil {
			t.Errorf("section: %v", err)
			return
		}
		checkWaxpby(t, wv, "native")
		if rt.Stats().TasksRun != 8 || rt.Stats().UpdateBytes != 0 {
			t.Errorf("stats: %+v", rt.Stats())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestClassicRunnerExecutesEverythingEverywhere(t *testing.T) {
	h := newHarness(t, 1, 2)
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewClassic(p)
		if rt.Mode() != "classic" {
			t.Errorf("mode = %s", rt.Mode())
		}
		wv, err := runWaxpbySection(rt, 32, 8)
		if err != nil {
			t.Errorf("section: %v", err)
			return
		}
		checkWaxpby(t, wv, "classic")
		if rt.Stats().TasksRun != 8 {
			t.Errorf("classic replica should run all tasks: %+v", rt.Stats())
		}
	})
	h.run(t)
}

// figure2Task reproduces the paper's Figure 2 example: a <- a+1; b <- a*2.
func figure2Task(c Ctx, args []Value) {
	a := args[0].(Scalar)
	b := args[1].(Scalar)
	*a.P = *a.P + 1
	*b.P = *a.P * 2
	c.Compute(perf.Work{Flops: 2})
}

// TestFigure2PartialUpdateHazard reproduces the exact scenario of Figure 2:
// the executing replica crashes after shipping the update for a but before
// shipping b. The survivor must re-execute the task starting from the
// original a (via the snapshot), ending with a=2, b=4 — not the incorrect
// a=3, b=6 of Figure 2b.
func TestFigure2PartialUpdateHazard(t *testing.T) {
	for _, mode := range []InoutMode{CopyRestore, AtomicApply} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, 1, 2)
			var survivorA, survivorB float64
			h.sys.Launch("app", func(p *replication.Proc) {
				a, b := 1.0, 0.0
				opts := Options{Mode: mode}
				if p.Lane == 0 {
					// Lane 0 executes task 0 (block schedule) and crashes
					// after sending the first argument's update.
					opts.Hooks.AfterArgSend = func(sec, task, arg int) {
						if arg == 0 {
							p.R.Crash()
						}
					}
				}
				rt := NewIntra(p, opts)
				rt.SectionBegin()
				id := rt.TaskRegister(figure2Task, InOut, Out)
				rt.TaskLaunch(id, Scalar{&a}, Scalar{&b})
				if err := rt.SectionEnd(); err != nil {
					t.Errorf("lane %d: %v", p.Lane, err)
					return
				}
				if p.Lane == 1 {
					survivorA, survivorB = a, b
				}
			})
			h.run(t)
			if survivorA != 2 || survivorB != 4 {
				t.Fatalf("mode %v: survivor state a=%v b=%v, want a=2 b=4 (Figure 2c)",
					mode, survivorA, survivorB)
			}
		})
	}
}

// TestCrashBeforeAnyUpdate covers §III-B2 case 1: the failure occurs before
// any update is sent; the survivor simply executes the task.
func TestCrashBeforeAnyUpdate(t *testing.T) {
	h := newHarness(t, 1, 2)
	var got Float64s
	h.sys.Launch("app", func(p *replication.Proc) {
		opts := Options{}
		if p.Lane == 0 {
			opts.Hooks.AfterTaskExec = func(sec, task int) { p.R.Crash() }
		}
		rt := NewIntra(p, opts)
		w, err := runWaxpbySection(rt, 32, 4)
		if p.Lane == 1 {
			if err != nil {
				t.Errorf("survivor: %v", err)
				return
			}
			got = w
			if rt.Stats().TasksRecovered == 0 {
				t.Error("expected recovered tasks")
			}
		}
	})
	h.run(t)
	checkWaxpby(t, got, "survivor")
}

// TestCrashOutsideSection covers §III-B2's "failure outside sections": no
// special action; the next sections run entirely on the survivor.
func TestCrashOutsideSection(t *testing.T) {
	h := newHarness(t, 1, 2)
	var got Float64s
	var st Stats
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewIntra(p, Options{})
		w1, err := runWaxpbySection(rt, 32, 4)
		if err != nil {
			t.Errorf("lane %d section 1: %v", p.Lane, err)
			return
		}
		checkWaxpby(t, w1, "section1")
		if p.Lane == 0 {
			p.R.Crash() // between sections
		}
		w2, err := runWaxpbySection(rt, 32, 4)
		if err != nil {
			t.Errorf("survivor section 2: %v", err)
			return
		}
		got = w2
		st = *rt.Stats()
	})
	h.run(t)
	checkWaxpby(t, got, "section2")
	// The survivor must have executed all 4 tasks of section 2 itself.
	if st.TasksRun != 2+4+2 && st.TasksRun != 6 {
		// lane 1 ran 2 tasks in section 1 plus all 4 in section 2
		t.Fatalf("TasksRun = %d, want 6", st.TasksRun)
	}
}

// TestInoutChainAcrossSections: a value updated in place across several
// sections (like GTC's particle positions) stays correct on all replicas.
func TestInoutChainAcrossSections(t *testing.T) {
	for _, mode := range []InoutMode{CopyRestore, AtomicApply} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, 1, 2)
			finals := map[int]float64{}
			inc := func(c Ctx, args []Value) {
				v := args[0].(Float64s)
				for i := range v {
					v[i] = v[i]*2 + 1
				}
				c.Compute(perf.Work{Flops: float64(2 * len(v))})
			}
			h.sys.Launch("app", func(p *replication.Proc) {
				rt := NewIntra(p, Options{Mode: mode})
				data := make(Float64s, 16) // zeros
				for step := 0; step < 5; step++ {
					rt.SectionBegin()
					id := rt.TaskRegister(inc, InOut)
					rt.TaskLaunch(id, data[:8])
					rt.TaskLaunch(id, data[8:])
					if err := rt.SectionEnd(); err != nil {
						t.Errorf("step %d: %v", step, err)
						return
					}
				}
				finals[p.Lane] = data[3] + data[12]
			})
			h.run(t)
			// x -> 2x+1 five times from 0: 0,1,3,7,15,31.
			if finals[0] != 62 || finals[1] != 62 {
				t.Fatalf("finals = %v, want 62 on both lanes", finals)
			}
		})
	}
}

func TestCopyTimeChargedForInout(t *testing.T) {
	h := newHarness(t, 1, 2)
	var copyTime sim.Time
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewIntra(p, Options{Mode: CopyRestore})
		data := make(Float64s, 1024)
		rt.SectionBegin()
		id := rt.TaskRegister(func(c Ctx, args []Value) {
			c.Compute(perf.Work{Flops: 1})
		}, InOut)
		rt.TaskLaunch(id, data[:512])
		rt.TaskLaunch(id, data[512:])
		if err := rt.SectionEnd(); err != nil {
			t.Errorf("section: %v", err)
		}
		if p.Lane == 0 {
			copyTime = rt.Stats().CopyTime
		}
	})
	h.run(t)
	if copyTime == 0 {
		t.Fatal("no copy time charged for inout args")
	}
}

func TestDegree3DeathSelfExecution(t *testing.T) {
	h := newHarness(t, 1, 3)
	finals := map[int]Float64s{}
	h.sys.Launch("app", func(p *replication.Proc) {
		opts := Options{}
		if p.Lane == 1 {
			opts.Hooks.AfterTaskExec = func(sec, task int) { p.R.Crash() }
		}
		rt := NewIntra(p, opts)
		w, err := runWaxpbySection(rt, 48, 6)
		if p.Lane != 1 {
			if err != nil {
				t.Errorf("lane %d: %v", p.Lane, err)
				return
			}
			finals[p.Lane] = w
		}
	})
	h.run(t)
	for _, lane := range []int{0, 2} {
		checkWaxpby(t, finals[lane], "survivor")
	}
}

func TestSchedulersCoverAllTasksExactlyOnce(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		prop := func(nRaw, lRaw uint8) bool {
			n := int(nRaw)%64 + 1
			l := int(lRaw)%4 + 1
			lanes := make([]int, l)
			for i := range lanes {
				lanes[i] = i
			}
			owner := BlockScheduler(nil, n, lanes)
			if len(owner) != n {
				return false
			}
			for i, o := range owner {
				// Every task has one lane, and lanes own contiguous runs.
				if o < 0 || o >= l || i > 0 && o < owner[i-1] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBlockSchedulerMatchesPaperSplit(t *testing.T) {
	// 8 tasks, 2 replicas: first 4 to replica 1, last 4 to replica 2 (§V-A).
	owner := BlockScheduler(nil, 8, []int{0, 1})
	for i := 0; i < 4; i++ {
		if owner[i] != 0 || owner[i+4] != 1 {
			t.Fatalf("owner = %v", owner)
		}
	}
}

func TestValues(t *testing.T) {
	v := Float64s{1, 2, 3}
	if v.ByteSize() != 24 {
		t.Fatal("bytes")
	}
	snap := v.Snapshot()
	v[0] = 9
	v.Restore(snap)
	if v[0] != 1 {
		t.Fatal("restore")
	}
	v.Apply([]float64{7, 8, 9})
	if v[2] != 9 {
		t.Fatal("apply")
	}
	x := 5.0
	s := Scalar{&x}
	if s.ByteSize() != 8 || s.Encode()[0] != 5 {
		t.Fatal("scalar basics")
	}
	ssnap := s.Snapshot()
	x = 6
	s.Restore(ssnap)
	if x != 5 {
		t.Fatal("scalar restore")
	}
	s.Apply([]float64{3})
	if x != 3 {
		t.Fatal("scalar apply")
	}
	for _, tag := range []ArgTag{In, Out, InOut, ArgTag(99)} {
		if tag.String() == "" {
			t.Fatal("tag string")
		}
	}
}

func TestSectionMisuse(t *testing.T) {
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 1)
	w := mpi.NewWorld(e, net, 1, perf.Grid5000, nil)
	w.Launch("native", 0, func(r *mpi.Rank) {
		rt := NewNative(r)
		mustPanic(t, "nested", func() { rt.SectionBegin(); rt.SectionBegin() })
		rt.SectionEnd()
		mustPanic(t, "end-no-begin", func() { rt.SectionEnd() })
		mustPanic(t, "register-outside", func() { rt.TaskRegister(figure2Task, In) })
		mustPanic(t, "launch-outside", func() { rt.TaskLaunch(0) })
		rt.SectionBegin()
		id := rt.TaskRegister(figure2Task, InOut, Out)
		mustPanic(t, "arity", func() { rt.TaskLaunch(id, Float64s{1}) })
		rt.SectionEnd()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestCrashAnywhereProperty is the central fault-tolerance property: a
// replica crashing at a uniformly random protocol point (or at a random
// virtual time) must leave every surviving replica with exactly the
// failure-free result, in both inout-protection modes.
func TestCrashAnywhereProperty(t *testing.T) {
	// Failure-free reference: x -> 2x+1 three times over each element, plus
	// a waxpby into w.
	ref := func() (Float64s, Float64s) {
		data := make(Float64s, 32)
		for i := range data {
			data[i] = float64(i)
		}
		for step := 0; step < 3; step++ {
			for i := range data {
				data[i] = data[i]*2 + 1
			}
		}
		w := make(Float64s, 32)
		for i := range w {
			w[i] = 2*data[i] + 3
		}
		return data, w
	}
	refData, refW := ref()

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := InoutMode(rng.Intn(2))
		victimLane := rng.Intn(2)
		crashSec := rng.Intn(4)
		crashTask := rng.Intn(4)
		crashKind := rng.Intn(3) // 0: before exec, 1: after exec, 2: after an arg send
		crashArg := rng.Intn(2)

		h := newHarness(t, 1, 2)
		okData := true
		h.sys.Launch("app", func(p *replication.Proc) {
			opts := Options{Mode: mode}
			if p.Lane == victimLane {
				switch crashKind {
				case 0:
					opts.Hooks.BeforeTaskExec = func(sec, task int) {
						if sec == crashSec && task == crashTask {
							p.R.Crash()
						}
					}
				case 1:
					opts.Hooks.AfterTaskExec = func(sec, task int) {
						if sec == crashSec && task == crashTask {
							p.R.Crash()
						}
					}
				default:
					opts.Hooks.AfterArgSend = func(sec, task, arg int) {
						if sec == crashSec && task == crashTask && arg == crashArg {
							p.R.Crash()
						}
					}
				}
			}
			rt := NewIntra(p, opts)
			data := make(Float64s, 32)
			for i := range data {
				data[i] = float64(i)
			}
			inc := func(c Ctx, args []Value) {
				v := args[0].(Float64s)
				for i := range v {
					v[i] = v[i]*2 + 1
				}
				c.Compute(perf.Work{Flops: float64(2 * len(v)), Bytes: float64(16 * len(v))})
			}
			for step := 0; step < 3; step++ {
				rt.SectionBegin()
				id := rt.TaskRegister(inc, InOut)
				for k := 0; k < 4; k++ {
					rt.TaskLaunch(id, data[k*8:(k+1)*8])
				}
				if err := rt.SectionEnd(); err != nil {
					okData = false
					return
				}
			}
			// Section 4: waxpby-style with separate out.
			w := make(Float64s, 32)
			two, three := 2.0, 3.0
			rt.SectionBegin()
			id := rt.TaskRegister(waxpbyTask, In, In, In, In, Out)
			ones := make(Float64s, 32)
			for i := range ones {
				ones[i] = 1
			}
			for k := 0; k < 4; k++ {
				rt.TaskLaunch(id, Scalar{&two}, data[k*8:(k+1)*8], Scalar{&three}, ones[k*8:(k+1)*8], w[k*8:(k+1)*8])
			}
			if err := rt.SectionEnd(); err != nil {
				okData = false
				return
			}
			if p.Lane != victimLane || !p.R.Proc().Crashed() {
				for i := range data {
					if data[i] != refData[i] || w[i] != refW[i] {
						okData = false
						return
					}
				}
			}
		})
		if err := h.e.Run(); err != nil {
			return false
		}
		return okData
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtRandomVirtualTime drives the same invariant with time-based
// fault injection instead of protocol hooks.
func TestCrashAtRandomVirtualTime(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := InoutMode(rng.Intn(2))
		victimLane := rng.Intn(2)
		// Sections take roughly a few hundred microseconds in total.
		at := sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
		h := newHarness(t, 1, 2)
		bad := false
		h.sys.Launch("app", func(p *replication.Proc) {
			rt := NewIntra(p, Options{Mode: mode})
			data := make(Float64s, 32)
			for step := 0; step < 6; step++ {
				rt.SectionBegin()
				id := rt.TaskRegister(func(c Ctx, args []Value) {
					v := args[0].(Float64s)
					for i := range v {
						v[i] += 1
					}
					c.Compute(perf.Work{Bytes: 1e5})
				}, InOut)
				for k := 0; k < 4; k++ {
					rt.TaskLaunch(id, data[k*8:(k+1)*8])
				}
				if err := rt.SectionEnd(); err != nil {
					bad = true
					return
				}
			}
			if p.Lane != victimLane || !p.R.Proc().Crashed() {
				for _, v := range data {
					if v != 6 {
						bad = true
						return
					}
				}
			}
		})
		h.e.At(at, func() { h.sys.KillReplica(0, victimLane) })
		if err := h.e.Run(); err != nil {
			return false
		}
		return !bad
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateWaitVisibleForTransferBoundTasks(t *testing.T) {
	// waxpby-like: big output, tiny compute => most of the section is spent
	// on updates (the dashed area in Fig 5a).
	h := newHarness(t, 1, 2)
	var st Stats
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewIntra(p, Options{})
		out := make(Float64s, 1<<16)
		rt.SectionBegin()
		id := rt.TaskRegister(func(c Ctx, args []Value) {
			c.Compute(perf.Work{Flops: 10})
		}, Out)
		for k := 0; k < 8; k++ {
			rt.TaskLaunch(id, out[k*8192:(k+1)*8192])
		}
		if err := rt.SectionEnd(); err != nil {
			t.Errorf("section: %v", err)
		}
		if p.Lane == 0 {
			st = *rt.Stats()
		}
	})
	h.run(t)
	if st.UpdateWait <= 0 || st.UpdateWait < st.SectionCompute {
		t.Fatalf("expected update-dominated section, stats %+v", st)
	}
}

func TestAllreduceAndBarrierViaRunner(t *testing.T) {
	h := newHarness(t, 3, 2)
	bad := false
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewIntra(p, Options{})
		if rt.LogicalRank() != p.Logical || rt.LogicalSize() != 3 {
			bad = true
		}
		v, err := rt.AllreduceScalar(mpi.OpSum, float64(rt.LogicalRank()))
		if err != nil || v != 3 {
			bad = true
		}
		if err := rt.Barrier(); err != nil {
			bad = true
		}
		// Logical p2p through the runner.
		if rt.LogicalRank() == 0 {
			if err := rt.Send(1, 7, []float64{math.Pi}); err != nil {
				bad = true
			}
		} else if rt.LogicalRank() == 1 {
			data, err := rt.Recv(0, 7)
			if err != nil || data[0] != math.Pi {
				bad = true
			}
		}
	})
	h.run(t)
	if bad {
		t.Fatal("runner comm wrong")
	}
}

func TestScaledValue(t *testing.T) {
	v := make(Float64s, 4)
	s := Scaled(v, 100)
	if s.ByteSize() != 3200 {
		t.Fatalf("scaled bytes = %d, want 3200", s.ByteSize())
	}
	if Scaled(v, 1).ByteSize() != 32 {
		t.Fatal("factor 1 must be identity")
	}
	// Snapshot/Restore must work through the wrapper.
	v[0] = 7
	snap := s.Snapshot()
	v[0] = 9
	s.Restore(snap)
	if v[0] != 7 {
		t.Fatalf("restore through wrapper: v[0] = %v", v[0])
	}
	if snap.ByteSize() != 3200 {
		t.Fatal("snapshot loses scaling")
	}
	// Restore from an unwrapped snapshot also works.
	raw := make(Float64s, 4)
	raw[0] = 5
	s.Restore(raw)
	if v[0] != 5 {
		t.Fatal("restore from raw value")
	}
	s.Apply([]float64{1, 2, 3, 4})
	if v[3] != 4 {
		t.Fatal("apply through wrapper")
	}
	if len(s.Encode()) != 4 {
		t.Fatal("encode through wrapper")
	}
}

func TestScaledValueDrivesUpdateCost(t *testing.T) {
	// Two identical sections, one with 1000x scaled outputs: the scaled
	// one must spend far longer on update transfers.
	run := func(factor float64) sim.Time {
		h := newHarness(t, 1, 2)
		var wait sim.Time
		h.sys.Launch("app", func(p *replication.Proc) {
			rt := NewIntra(p, Options{})
			out := make(Float64s, 4096)
			rt.SectionBegin()
			id := rt.TaskRegister(func(c Ctx, args []Value) {
				c.Compute(perf.Work{Flops: 100})
			}, Out)
			for k := 0; k < 8; k++ {
				rt.TaskLaunch(id, Scaled(out[k*512:(k+1)*512], factor))
			}
			if err := rt.SectionEnd(); err != nil {
				t.Errorf("section: %v", err)
			}
			if p.Lane == 0 {
				wait = rt.Stats().UpdateWait
			}
		})
		h.run(t)
		return wait
	}
	small, big := run(1), run(1000)
	if big < 100*small {
		t.Fatalf("scaled update wait %v not ~1000x of %v", big, small)
	}
}

func TestIntraDegreeOneRunsLocally(t *testing.T) {
	// Degree 1 (no peers): the intra engine degenerates to local execution.
	h := newHarness(t, 1, 1)
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewIntra(p, Options{})
		w, err := runWaxpbySection(rt, 32, 4)
		if err != nil {
			t.Errorf("section: %v", err)
			return
		}
		checkWaxpby(t, w, "degree1")
		if rt.Stats().TasksRun != 4 || rt.Stats().UpdateBytes != 0 {
			t.Errorf("stats: %+v", rt.Stats())
		}
	})
	h.run(t)
}

func TestSequentialSectionsReuseRuntime(t *testing.T) {
	// Many sections in a row: task registry resets each time (Algorithm 1
	// lines 9-12), stats accumulate.
	h := newHarness(t, 1, 2)
	h.sys.Launch("app", func(p *replication.Proc) {
		rt := NewIntra(p, Options{})
		for i := 0; i < 20; i++ {
			if _, err := runWaxpbySection(rt, 16, 4); err != nil {
				t.Errorf("section %d: %v", i, err)
				return
			}
		}
		if rt.Stats().Sections != 20 {
			t.Errorf("sections = %d", rt.Stats().Sections)
		}
	})
	h.run(t)
}
