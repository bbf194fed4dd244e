package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/testutil"
)

// survivableSchedules draws n crash schedules for a run of `logical` ranks
// at `degree` whose fault-free makespan is wall. Every schedule leaves each
// rank at least one lane. The first few are fixed edge cases (crashes at 0
// and at wall-1 ns, on the first and the last lane, and at degree 3 two
// lanes of one rank, the lowest alive lane dying last); the rest cycle
// through three shapes:
//   - 1-4 crashes on distinct replicas, at most degree-1 lanes per rank,
//     so either lane of a rank may die first;
//   - at degree 3, two lanes of one rank plus up to two crashes elsewhere;
//   - jobstream's shape: every replica fails as a renewal process, and the
//     schedule is the chronological prefix that stops one failure short of
//     a rank's last lane (a replica may fail twice, a no-op the second time).
//
// A random crash time is 0 or wall-1 ns with probability 1/6 each, and
// otherwise uniform over the fault-free run.
func survivableSchedules(rng *rand.Rand, logical, degree int, wall sim.Time, n int) []*fault.Schedule {
	last := wall - 1
	sched := func(cs ...fault.Crash) *fault.Schedule { return &fault.Schedule{Crashes: cs} }
	out := []*fault.Schedule{
		sched(fault.Crash{Logical: 0, Lane: 0, Time: 0}),
		sched(fault.Crash{Logical: logical - 1, Lane: degree - 1, Time: 0}),
		sched(fault.Crash{Logical: 0, Lane: 0, Time: last}),
		sched(fault.Crash{Logical: logical - 1, Lane: degree - 1, Time: last}),
	}
	if degree >= 3 {
		out = append(out,
			sched(fault.Crash{Logical: 1, Lane: 2, Time: wall / 8}, fault.Crash{Logical: 1, Lane: 0, Time: last}),
			sched(fault.Crash{Logical: 2, Lane: 0, Time: 0}, fault.Crash{Logical: 2, Lane: 1, Time: wall / 2}))
	}
	crashTime := func() sim.Time {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return last
		}
		return sim.Time(rng.Int63n(int64(wall)))
	}
	// killable lists degree-1 lanes of every rank, in random order.
	killable := func() []fault.Crash {
		var cs []fault.Crash
		for r := 0; r < logical; r++ {
			for _, l := range rng.Perm(degree)[:degree-1] {
				cs = append(cs, fault.Crash{Logical: r, Lane: l})
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		return cs
	}
	for len(out) < n {
		shape := len(out) % 3
		if shape == 2 {
			if cs := renewalPrefix(rng, logical, degree, wall); len(cs) > 0 {
				out = append(out, sched(cs...))
			}
			continue
		}
		var cs []fault.Crash
		if shape == 1 && degree >= 3 {
			r, lanes, extra := rng.Intn(logical), rng.Perm(degree), rng.Intn(3)
			cs = []fault.Crash{{Logical: r, Lane: lanes[0]}, {Logical: r, Lane: lanes[1]}}
			for _, c := range killable() {
				if len(cs) < 2+extra && c.Logical != r {
					cs = append(cs, c)
				}
			}
		} else {
			cs = killable()[:min(1+rng.Intn(4), logical*(degree-1))]
		}
		for i := range cs {
			cs[i].Time = crashTime()
		}
		out = append(out, sched(cs...))
	}
	return out
}

// renewalPrefix is jobstream's schedule for one replicated job: each
// replica's node fails as a renewal process (about three failures over
// the run in all), events are walked in (time, rank, lane) order, and the
// schedule keeps every event before the first that would cost a rank its
// last lane. Like jobstream, it counts a replica's repeated failures
// toward its rank's losses.
func renewalPrefix(rng *rand.Rand, logical, degree int, wall sim.Time) []fault.Crash {
	mean := float64(wall) * float64(logical*degree) / 3
	var evs []fault.Crash
	for r := 0; r < logical; r++ {
		for l := 0; l < degree; l++ {
			for t := rng.ExpFloat64() * mean; t < float64(wall); t += rng.ExpFloat64() * mean {
				evs = append(evs, fault.Crash{Logical: r, Lane: l, Time: sim.Time(t)})
			}
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.Time != eb.Time {
			return ea.Time < eb.Time
		}
		if ea.Logical != eb.Logical {
			return ea.Logical < eb.Logical
		}
		return ea.Lane < eb.Lane
	})
	kills := make([]int, logical)
	for k, e := range evs {
		if kills[e.Logical]++; kills[e.Logical] >= degree {
			return evs[:k]
		}
	}
	return evs
}

// oracleEngines are the engine settings every replay oracle covers: the
// classic engine, and the intra engine under both inout modes.
var oracleEngines = []struct {
	mode  Mode
	inout string
}{{Classic, ""}, {Intra, "copy"}, {Intra, "atomic"}}

// forEachOracleSchedule calls check on every oracle case: the four apps
// at paperSpec's shape under each oracle engine, degrees 2 and 3, each
// under survivable schedules (s carries the schedule, ts the trace set
// RecordTraces records for s). Each (app, engine, degree) is a parallel
// subtest, named app/dN for classic and app/intra-inout/dN for intra;
// seed varies the schedules between callers. Classic subtests get 60
// schedules and intra ones, whose executions cost more, 12. The race
// detector slows every simulated event about tenfold, so it gets an
// eighth of each.
func forEachOracleSchedule(t *testing.T, seed int64, check func(t *testing.T, s Spec, ts *core.TraceSet)) {
	for _, app := range []string{"hpccg", "amg", "gtc", "minighost"} {
		for _, en := range oracleEngines {
			for _, degree := range []int{2, 3} {
				name := fmt.Sprintf("%s/d%d", app, degree)
				if en.mode == Intra {
					name = fmt.Sprintf("%s/intra-%s/d%d", app, en.inout, degree)
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cases := 60
					if en.mode == Intra {
						cases = 12
					}
					if testutil.RaceEnabled {
						cases /= 8
					}
					s := paperSpec(t, app, en.mode, degree, en.inout)
					ts, err := RecordTraces(s)
					if err != nil {
						t.Fatal(err)
					}
					ff, err := run(nil, nil, s, nil)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed + int64(len(app)*10+degree+100*len(en.inout))))
					for _, fs := range survivableSchedules(rng, s.Logical, degree, ff.Measure.Wall, cases) {
						s.Fault = fs
						check(t, s, ts)
					}
				})
			}
		}
	}
}

// replicaOut is one finished replica's view of an oracle run.
type replicaOut struct {
	stats core.Stats
	total sim.Time    // the in-app total its main returned
	trace *core.Trace // its recorded trace, when recording
}

// replicaRun is one oracle run, replica by replica.
type replicaRun struct {
	wall   sim.Time       // the last replica's completion, as run measures it
	deaths int            // replicas the crashes killed
	out    [][]replicaOut // per logical rank, its finished replicas
}

// runReplicas runs s on a cluster set up as run sets it up, executed
// or, with s.Replay, replayed, and returns every finished replica's
// outcome, per logical rank in a canonical order. With record, every
// replica also records its Runner-level trace.
func runReplicas(t *testing.T, s Spec, record bool) replicaRun {
	t.Helper()
	main := s.App.main
	if s.Replay != nil {
		main = replayMain(s.Replay)
	}
	c, err := NewCluster(ClusterConfig{
		Logical: s.Logical, Mode: s.Mode, Degree: s.Degree,
		Net: s.Net, Machine: s.Machine,
		IntraOpts: core.Options{Mode: s.Inout},
		SendLog:   len(s.Fault.Crashes) > 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Fault.Install(c.E, c.Sys)
	run := replicaRun{out: make([][]replicaOut, s.Logical)}
	c.Launch(func(rt core.Runner) {
		var tr *core.Trace
		var err error
		if record {
			tr, err = core.StartRecording(rt)
		}
		var total sim.Time
		if err == nil {
			total, _, _, err = main(rt)
		}
		if err != nil {
			t.Errorf("rank %d: %v", rt.LogicalRank(), err)
			return
		}
		r := rt.LogicalRank()
		run.out[r] = append(run.out[r], replicaOut{stats: *rt.Stats(), total: total, trace: tr})
		run.wall = max(run.wall, rt.Now())
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	run.deaths = c.Sys.Epoch()
	for _, outs := range run.out {
		sort.Slice(outs, func(a, b int) bool {
			return fmt.Sprint(outs[a].total, outs[a].stats) < fmt.Sprint(outs[b].total, outs[b].stats)
		})
	}
	return run
}

// TestReplayMatchesExecution is the differential oracle of op-trace
// replay: on every oracle schedule, a spec replaying its recorded trace
// (Spec.Replay) must give exactly the wall time, the replicas killed and
// the same surviving replicas of every rank as the same spec executed.
// Those are what Spec.Replay promises, and all the failure campaigns and
// jobstream read of it. On the intra engine, where the section protocol
// runs for real under replay, every surviving replica's runner stats
// (task counts, recovered tasks, recovery rounds, update bytes, update
// wait, copy time, compute) and its in-app total must equal execution's
// too. A sweep result is a function of these per-replica outcomes.
func TestReplayMatchesExecution(t *testing.T) {
	forEachOracleSchedule(t, 0, func(t *testing.T, exec Spec, ts *core.TraceSet) {
		rep := exec
		rep.Replay = ts
		fp := exec.Fault.Fingerprint()
		a, b := runReplicas(t, exec, false), runReplicas(t, rep, false)
		if a.wall != b.wall || a.deaths != b.deaths {
			t.Fatalf("schedule %s: executed wall %d ns, %d deaths; replayed %d ns, %d", fp, a.wall, a.deaths, b.wall, b.deaths)
		}
		for r := range a.out {
			if len(a.out[r]) != len(b.out[r]) {
				t.Fatalf("schedule %s: rank %d kept %d replicas executed, %d replayed", fp, r, len(a.out[r]), len(b.out[r]))
			}
			if exec.Mode != Intra {
				continue
			}
			for k := range a.out[r] {
				if a.out[r][k].stats != b.out[r][k].stats || a.out[r][k].total != b.out[r][k].total {
					t.Fatalf("schedule %s: a survivor of rank %d executed %+v (total %d), replayed %+v (total %d)",
						fp, r, a.out[r][k].stats, a.out[r][k].total, b.out[r][k].stats, b.out[r][k].total)
				}
			}
		}
	})
}

// TestSurvivorTracesMatchFaultFree checks the premise every replay rests
// on (core/trace.go): a survivable crash never changes a logical rank's
// Runner-level call sequence, sections and their tasks' argument tags and
// sizes included. On every oracle schedule, every surviving replica's
// recorded trace must equal the trace RecordTraces records for its rank
// (task compute aside on the intra engine, whose replicas run only their
// share of the tasks), and every rank must keep a survivor.
func TestSurvivorTracesMatchFaultFree(t *testing.T) {
	forEachOracleSchedule(t, 100, func(t *testing.T, s Spec, ts *core.TraceSet) {
		for r, outs := range runReplicas(t, s, true).out {
			if len(outs) == 0 {
				t.Fatalf("schedule %s: rank %d has no survivor", s.Fault.Fingerprint(), r)
			}
			for _, o := range outs {
				if !o.trace.Equal(ts.Rank(r)) {
					t.Fatalf("schedule %s: a survivor of rank %d recorded another call sequence than the fault-free run", s.Fault.Fingerprint(), r)
				}
			}
		}
	})
}

// TestRecordingsAgreeAcrossEngines checks the premise that lets one
// recording serve a logical program under every engine: the four apps
// record the same call sequence, op for op and task for task, on the
// native engine and on the classic engine at degrees 2 and 3, task
// compute included, and on the intra engine (whose replicas run only
// their share of the tasks) up to task compute.
func TestRecordingsAgreeAcrossEngines(t *testing.T) {
	for _, app := range []string{"hpccg", "amg", "gtc", "minighost"} {
		t.Run(app, func(t *testing.T) {
			record := func(s Spec) *core.TraceSet {
				t.Helper()
				ts := core.NewTraceSet(s.Logical)
				if _, err := run(nil, nil, s, ts); err != nil {
					t.Fatal(err)
				}
				return ts
			}
			want := record(paperSpec(t, app, Native, 0, ""))
			for _, s := range []Spec{
				paperSpec(t, app, Classic, 2, ""), paperSpec(t, app, Classic, 3, ""),
				paperSpec(t, app, Intra, 2, "copy"), paperSpec(t, app, Intra, 3, "atomic"),
			} {
				got := record(s)
				for r := range s.Logical {
					if !got.Rank(r).Equal(want.Rank(r)) {
						t.Fatalf("%s degree %d: rank %d recorded another call sequence than native", s.Mode.Name(), s.Degree, r)
					}
				}
			}
		})
	}
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// TestReplayedRecordsKeyApart pins the store rule for replay: a crashed
// classic or intra spec keys apart with and without Spec.Replay, because
// the two records differ (a replayed one has no kernel timings and its
// own event count), and recomputing either spec reproduces its stored
// result record byte for byte, elapsed_ms aside. Records are
// content-addressed: a key's payload never depends on which strategy
// happened to compute it first.
func TestReplayedRecordsKeyApart(t *testing.T) {
	for _, mode := range []Mode{Classic, Intra} {
		t.Run(mode.Name(), func(t *testing.T) {
			exec := Spec{Name: "crashed", Mode: mode, Logical: 4, App: HPCCG(smallHPCCG(3)),
				Fault: fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), 5).Schedule}
			if len(exec.Fault.Crashes) == 0 {
				t.Fatal("the draw must crash a replica")
			}
			ts, err := RecordTraces(exec)
			if err != nil {
				t.Fatal(err)
			}
			rep := exec
			rep.Replay = ts
			specs := []Spec{exec, rep}
			keys := make([]string, len(specs))
			for i, s := range specs {
				if keys[i], err = s.Key(); err != nil {
					t.Fatal(err)
				}
			}
			if keys[0] == keys[1] {
				t.Fatal("an executed and a replayed spec share a store key")
			}

			dir := t.TempDir()
			st := openStore(t, dir, "populate")
			if _, err := SweepStore(1, st, specs); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := openStore(t, dir, "read")
			stored := make([][]byte, len(specs))
			for i, s := range specs {
				raw, ok := reopened.Get(resultKind, store.Key(keys[i]))
				if !ok {
					t.Fatalf("%s record missing", s.Name)
				}
				r, err := run(nil, nil, s, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := json.Marshal(encodeResult(r))
				if err != nil {
					t.Fatal(err)
				}
				stored[i] = elapsedField.ReplaceAll(raw, []byte(`"elapsed_ms":0`))
				if fresh = elapsedField.ReplaceAll(fresh, []byte(`"elapsed_ms":0`)); !bytes.Equal(stored[i], fresh) {
					t.Fatalf("recomputed record %d differs from the stored one:\n%s\nvs\n%s", i, fresh, stored[i])
				}
			}
			if bytes.Equal(stored[0], stored[1]) {
				t.Fatal("executed and replayed records are identical: the key flag separates nothing")
			}
		})
	}
}
