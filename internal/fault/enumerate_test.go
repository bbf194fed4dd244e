package fault_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// enumConfig is the tiny HPCCG of the crash enumeration: a 4x4x4 slab per
// rank and 4 tasks per section, 5 iterations, so each of its two logical
// ranks runs 16 sections.
func enumConfig() hpccg.Config {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 4, 4, 4
	cfg.Iters, cfg.Tasks = 5, 4
	return cfg
}

const enumLogical = 2

// planAt crashes replica (rank, lane) the nth time it reaches point.
type planAt struct {
	rank, lane int
	point      fault.Point
	n          int
}

// enumCase is one enumerated crash case: protocol-point crashes, timed
// crashes, or both.
type enumCase struct {
	plans []planAt
	timed []fault.Crash
}

func (c enumCase) String() string { return fmt.Sprintf("plans %v timed %v", c.plans, c.timed) }

// replicaEnd is one replica's outcome in an enumerated run.
type replicaEnd struct {
	finished bool
	residual float64 // executed runs only
	stats    core.Stats
	total    sim.Time
	trace    *core.Trace // executed runs only
	points   [3]int      // protocol points reached, per fault.Point
}

// enumRun is one enumerated intra run's outcome.
type enumRun struct {
	wall   sim.Time
	deaths int
	ends   [][]replicaEnd // per rank and lane
}

// runEnumCase runs enumConfig under the intra engine at the given degree
// and inout mode with the case's crashes armed, counting every replica's
// protocol points. With ts nil it executes HPCCG, every replica recording
// its trace; otherwise it replays ts. A deadlock or an application error
// fails the test.
func runEnumCase(t *testing.T, degree int, mode core.InoutMode, ec enumCase, ts *core.TraceSet) enumRun {
	t.Helper()
	cfg := enumConfig()
	c := newCluster(t, experiments.ClusterConfig{
		Logical: enumLogical, Degree: degree, Mode: experiments.Intra, SendLog: true,
	})
	(&fault.Schedule{Crashes: ec.timed}).Install(c.E, c.Sys)
	run := enumRun{ends: make([][]replicaEnd, enumLogical)}
	for r := range run.ends {
		run.ends[r] = make([]replicaEnd, degree)
	}
	c.Sys.Launch("app", func(p *replication.Proc) {
		end := &run.ends[p.Logical][p.Lane]
		var plan core.Hooks
		for _, pa := range ec.plans {
			if pa.rank == p.Logical && pa.lane == p.Lane {
				plan = (&fault.CrashPlan{Point: pa.point, Nth: pa.n}).Hooks(p)
			}
		}
		// Count each point before the plan may crash the replica there.
		hooks := core.Hooks{
			BeforeTaskExec: func(s, k int) {
				end.points[fault.BeforeExec]++
				if plan.BeforeTaskExec != nil {
					plan.BeforeTaskExec(s, k)
				}
			},
			AfterTaskExec: func(s, k int) {
				end.points[fault.AfterExec]++
				if plan.AfterTaskExec != nil {
					plan.AfterTaskExec(s, k)
				}
			},
			AfterArgSend: func(s, k, a int) {
				end.points[fault.MidUpdate]++
				if plan.AfterArgSend != nil {
					plan.AfterArgSend(s, k, a)
				}
			},
		}
		rt := core.NewIntra(p, core.Options{Mode: mode, Hooks: hooks})
		var err error
		if ts != nil {
			end.total, err = core.Replay(rt, ts)
		} else if end.trace, err = core.StartRecording(rt); err == nil {
			var res *hpccg.Result
			if res, err = hpccg.Run(rt, cfg); err == nil {
				end.residual, end.total = res.Residual, res.Total
			}
		}
		if err != nil {
			t.Errorf("rank %d lane %d: %v", p.Logical, p.Lane, err)
			return
		}
		end.finished, end.stats = true, *rt.Stats()
	})
	wall, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	run.wall, run.deaths = wall, c.Sys.Epoch()
	return run
}

// TestIntraCrashEnumeration checks the paper's crash-transparency claim
// (§III-B2) exhaustively at a tiny shape rather than by sampling, and
// section-skeleton replay against execution on the same cases: HPCCG on
// two logical ranks, under both inout modes, at degree 2 and at degree 3.
// The cases are
//   - every single protocol-point crash: each replica crashed through a
//     fault.CrashPlan at every count of BeforeExec, AfterExec and
//     MidUpdate its fault-free run reaches;
//   - at degree 3, two lanes of one rank crashed at the same count of the
//     same point, for every lane pair and rank and every third count;
//   - seeded timed crashes over the fault-free run: one replica, or at
//     degree 3 two lanes of one rank.
//
// Every executed case must finish without deadlock, every rank must keep
// a survivor, every survivor's residual must equal the native run's bit
// for bit, and every survivor must record the fault-free call sequence.
// The same case replayed from the recorded traces (the protocol hooks
// fire at the same points under replay) must end at the same virtual
// time, kill the same replicas and leave every survivor with the same
// runner stats and in-app total.
func TestIntraCrashEnumeration(t *testing.T) {
	cfg := enumConfig()
	var ref float64
	if _, err := experiments.RunProgram(experiments.ClusterConfig{Logical: enumLogical, Mode: experiments.Native},
		func(rt core.Runner) {
			res, err := hpccg.Run(rt, cfg)
			if err != nil {
				t.Errorf("native: %v", err)
				return
			}
			ref = res.Residual
		}); err != nil {
		t.Fatal(err)
	}
	// Lane pairs visit every third count. The race detector slows every
	// event about tenfold: it visits every seventh count of single
	// crashes, every 21st of pairs and half of the timed cases.
	stride, pairStride, timedCases := 1, 3, 16
	if testutil.RaceEnabled {
		stride, pairStride, timedCases = 7, 21, 8
	}
	for _, degree := range []int{2, 3} {
		for _, mode := range []core.InoutMode{core.CopyRestore, core.AtomicApply} {
			t.Run(fmt.Sprintf("d%d/%s", degree, mode), func(t *testing.T) {
				t.Parallel()
				ts, err := experiments.RecordTraces(experiments.Spec{
					Name: "enum", Mode: experiments.Intra, Logical: enumLogical, Degree: degree,
					App: experiments.HPCCG(cfg),
				})
				if err != nil {
					t.Fatal(err)
				}
				check := func(ec enumCase) enumRun {
					t.Helper()
					exec, rep := runEnumCase(t, degree, mode, ec, nil), runEnumCase(t, degree, mode, ec, ts)
					if exec.wall != rep.wall || exec.deaths != rep.deaths {
						t.Fatalf("%v: executed wall %d ns, %d deaths; replayed %d ns, %d", ec, exec.wall, exec.deaths, rep.wall, rep.deaths)
					}
					for r, ends := range exec.ends {
						survivors := 0
						for l, e := range ends {
							re := rep.ends[r][l]
							if e.finished != re.finished || e.stats != re.stats || e.total != re.total {
								t.Fatalf("%v: rank %d lane %d executed %v %+v (total %d), replayed %v %+v (total %d)",
									ec, r, l, e.finished, e.stats, e.total, re.finished, re.stats, re.total)
							}
							if !e.finished {
								continue
							}
							survivors++
							if e.residual != ref {
								t.Fatalf("%v: rank %d lane %d computed residual %v, native %v", ec, r, l, e.residual, ref)
							}
							if !e.trace.Equal(ts.Rank(r)) {
								t.Fatalf("%v: rank %d lane %d recorded another call sequence than the fault-free run", ec, r, l)
							}
						}
						if survivors == 0 {
							t.Fatalf("%v: rank %d has no survivor", ec, r)
						}
					}
					return exec
				}
				ff := check(enumCase{})
				points := []fault.Point{fault.BeforeExec, fault.AfterExec, fault.MidUpdate}
				cases := 0
				for r := 0; r < enumLogical; r++ {
					for l := 0; l < degree; l++ {
						for _, pt := range points {
							for n := 1; n <= ff.ends[r][l].points[pt]; n += stride {
								ec := enumCase{plans: []planAt{{r, l, pt, n}}}
								// The replica's points up to its crash are the
								// fault-free ones, so the plan must fire.
								if check(ec).ends[r][l].finished {
									t.Fatalf("%v: the plan did not fire", ec)
								}
								cases++
							}
						}
					}
				}
				if degree >= 3 {
					for r := 0; r < enumLogical; r++ {
						for a := 0; a < degree; a++ {
							for b := a + 1; b < degree; b++ {
								for _, pt := range points {
									most := max(ff.ends[r][a].points[pt], ff.ends[r][b].points[pt])
									for n := 1; n <= most; n += pairStride {
										check(enumCase{plans: []planAt{{r, a, pt, n}, {r, b, pt, n}}})
										cases++
									}
								}
							}
						}
					}
				}
				rng := rand.New(rand.NewSource(int64(10*degree) + int64(mode)))
				for k := 0; k < timedCases; k++ {
					r, lanes := rng.Intn(enumLogical), rng.Perm(degree)
					ec := enumCase{timed: []fault.Crash{{Logical: r, Lane: lanes[0], Time: sim.Time(rng.Int63n(int64(ff.wall)))}}}
					if degree >= 3 && k%2 == 1 {
						ec.timed = append(ec.timed, fault.Crash{Logical: r, Lane: lanes[1], Time: sim.Time(rng.Int63n(int64(ff.wall)))})
					}
					check(ec)
					cases++
				}
				t.Logf("%d crash cases", cases)
			})
		}
	}
}
