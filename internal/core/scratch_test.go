package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/testutil"
)

// scratchTrial runs one crashed intra trial of four logical ranks at
// degree 2 on e and sc, replaying ts, and hands everything back the way a
// sweep worker does: the runners, system and world to the scratch, then
// the engine Reset.
func scratchTrial(t *testing.T, e *sim.Engine, sc *Scratch, ts *TraceSet) {
	net := simnet.New(e, simnet.InfiniBand20G, 2)
	w := sc.MPI.NewWorld(e, net, 8, perf.Grid5000, nil)
	sys := sc.Repl.New(w, replication.Config{Logical: 4, Degree: 2, SendLog: true})
	sys.Launch("trial", func(p *replication.Proc) {
		if _, err := Replay(sc.Intra(p, Options{Mode: CopyRestore}), ts); err != nil {
			t.Error(err)
		}
	})
	e.At(sim.Micros(30), func() { sys.KillReplica(1, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sc.Reclaim()
	sys.Reclaim()
	w.Reclaim()
	e.Reset()
}

// recordSections records four logical ranks of a program of inout
// sections (each task reads its slice and updates it in place) around
// allreduces, on the classic engine.
func recordSections(t *testing.T) *TraceSet {
	t.Helper()
	ts := NewTraceSet(4)
	e := sim.New()
	w := mpi.NewWorld(e, simnet.New(e, simnet.InfiniBand20G, 2), 8, perf.Grid5000, nil)
	sys := replication.New(w, replication.Config{Logical: 4, Degree: 2})
	sys.Launch("record", func(p *replication.Proc) {
		rt := NewClassic(p)
		tr, err := StartRecording(rt)
		if err != nil {
			t.Error(err)
			return
		}
		data := make(Float64s, 64)
		for s := 0; s < 6; s++ {
			rt.SectionBegin()
			id := rt.TaskRegister(func(c Ctx, args []Value) {
				v := args[0].(Float64s)
				for i := range v {
					v[i] += 1
				}
				c.Compute(perf.Work{Flops: 4000})
			}, InOut)
			for k := 0; k < 8; k++ {
				rt.TaskLaunch(id, data[8*k:8*k+8])
			}
			if err := rt.SectionEnd(); err != nil {
				t.Error(err)
				return
			}
			if _, err := rt.AllreduceScalar(1); err != nil {
				t.Error(err)
				return
			}
		}
		ts.Commit(rt.LogicalRank(), tr, rt.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestScratchTrialAllocBudget pins the recycled trial path at the core
// layer: once a pooled engine and a Scratch are warm, a further crashed
// intra trial replaying inout sections — failover, recovery rounds,
// copy-restore snapshots and all — rebuilds its runners, task records,
// section scratch, procs, send logs and rank states from the scratch. It
// allocates 17 objects: the network and world structs, their hook
// closures, the test's launch closures, and the errors, requests and
// headers the crash strands.
func TestScratchTrialAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	ts := recordSections(t)
	e, sc := sim.NewPooled(), NewScratch()
	defer e.Shutdown()
	scratchTrial(t, e, sc, ts) // warm the engine and the scratch
	const budget = 20
	per := testing.AllocsPerRun(20, func() { scratchTrial(t, e, sc, ts) })
	t.Logf("allocations per recycled trial: %.0f", per)
	if per > budget {
		t.Fatalf("a recycled trial allocates %.0f objects, budget %d", per, budget)
	}
}
