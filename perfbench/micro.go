package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/ckptsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/jobstream"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// micros measures the unit cost of one operation of each layer the
// workloads pass through. The bodies are testing.B functions: the traced
// run calls them through testing.Benchmark, and BenchmarkMicros runs them
// under go test -bench.
var micros = map[string]func(*testing.B){
	"sim.event":               benchEngineEvents,
	"simnet.transfer":         benchTransfer,
	"mpi.pingpong":            benchPingPong,
	"mpi.allreduce64":         benchAllreduce(64),
	"mpi.allreduce512":        benchAllreduce(512),
	"replication.send":        benchReplicatedSend,
	"replication.failover":    benchFailover,
	"core.section":            benchIntraSection,
	"core.replay_trial":       benchReplayTrial,
	"kernels.spmv":            benchSpMV,
	"kernels.gen27":           benchGen27,
	"kernels.stencil27":       benchStencil27,
	"kernels.pic_push":        benchPICPush,
	"fault.draw":              benchDraw,
	"fault.draw_unclamped":    benchDrawUnclamped,
	"ckptsim.replay":          benchCkptReplay,
	"store.get":               benchStoreGet,
	"store.put":               benchStorePut,
	"jobstream.cluster_alloc": benchClusterAlloc,
}

// microTime is how long testing.Benchmark grows each micro-benchmark's
// iteration count for.
const microTime = 100 * time.Millisecond

var initBench sync.Once

// runMicro runs one micro-benchmark outside go test; tiny runs a single
// iteration.
func runMicro(fn func(*testing.B), tiny bool) (testing.BenchmarkResult, error) {
	initBench.Do(testing.Init)
	benchtime := microTime.String()
	if tiny {
		benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return testing.BenchmarkResult{}, err
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return r, fmt.Errorf("micro-benchmark failed")
	}
	return r, nil
}

// newWorld builds an n-rank world on the paper's platform.
func newWorld(e *sim.Engine, n int) *mpi.World {
	cfg := simnet.InfiniBand20G
	net := simnet.New(e, cfg, (n+cfg.CoresPerNode-1)/cfg.CoresPerNode)
	return mpi.NewWorld(e, net, n, perf.Grid5000, nil)
}

// benchEngineEvents measures raw event throughput: one self-rescheduling
// event chain, the engine's hot path.
func benchEngineEvents(b *testing.B) {
	e := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	b.ResetTimer()
	e.After(1, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchTransfer measures one inter-node NIC transfer and its delivery.
func benchTransfer(b *testing.B) {
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 2)
	n := 0
	var send func()
	send = func() {
		n++
		if n < b.N {
			net.Send(0, 1, 4096, send)
		}
	}
	b.ResetTimer()
	net.Send(0, 1, 4096, send)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchPingPong measures one send+recv round trip between two ranks on a
// node, recycling received messages as a steady-state consumer does.
func benchPingPong(b *testing.B) {
	e := sim.New()
	w := newWorld(e, 2)
	payload := make([]float64, 128)
	w.Launch("a", 0, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			r.Send(r.World(), 1, 0, payload, nil)
			msg, err := r.Recv(r.World(), 1, 1)
			if err != nil {
				b.Error(err)
				return
			}
			w.RecycleMessage(msg)
		}
	})
	w.Launch("b", 1, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			msg, err := r.Recv(r.World(), 0, 0)
			if err != nil {
				b.Error(err)
				return
			}
			w.RecycleMessage(msg)
			r.Send(r.World(), 0, 1, payload, nil)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchAllreduce measures one n-rank scalar allreduce.
func benchAllreduce(n int) func(b *testing.B) {
	return func(b *testing.B) {
		e := sim.New()
		w := newWorld(e, n)
		w.LaunchAll("p", func(r *mpi.Rank) {
			for i := 0; i < b.N; i++ {
				if _, err := r.AllreduceScalar(r.World(), mpi.OpSum, 1); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReplicatedSend measures one logical ping-pong round between two
// degree-2 logical ranks with send logging, the campaigns' operating
// mode: two logical sends, each fanned out to both lanes by both replicas.
func benchReplicatedSend(b *testing.B) {
	e := sim.New()
	sys := replication.New(newWorld(e, 4), replication.Config{Logical: 2, Degree: 2, SendLog: true})
	payload := make([]float64, 8)
	sys.Launch("pp", func(p *replication.Proc) {
		for i := 0; i < b.N; i++ {
			var err error
			if p.Logical == 0 {
				if err = p.Send(1, 1, payload, nil); err == nil {
					_, err = p.Recv(1, 2)
				}
			} else if _, err = p.Recv(0, 1); err == nil {
				err = p.Send(0, 2, payload, nil)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchFailover measures one replica crash mid-stream: the sender's twin
// covers the orphaned lane and replays its send log, and the receiver
// drops the duplicates it already has. Each operation is a whole small
// run, cluster construction included.
func benchFailover(b *testing.B) {
	payload := make([]float64, 128)
	for i := 0; i < b.N; i++ {
		e := sim.New()
		sys := replication.New(newWorld(e, 4), replication.Config{Logical: 2, Degree: 2, SendLog: true})
		sys.Launch("failover", func(p *replication.Proc) {
			switch {
			case p.Logical == 0 && p.Lane == 0:
				// Sends the first message, then dies during its compute.
				if err := p.Send(1, 9, payload, nil); err != nil {
					b.Error(err)
					return
				}
				p.R.Compute(sim.Second)
			case p.Logical == 0:
				for k := 0; k < 3; k++ {
					if err := p.Send(1, 9, payload, nil); err != nil {
						b.Error(err)
						return
					}
				}
			default:
				for k := 0; k < 3; k++ {
					if _, err := p.Recv(0, 9); err != nil {
						b.Error(err)
						return
					}
				}
			}
		})
		e.At(5*sim.Millisecond, func() { sys.KillReplica(0, 0) })
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIntraSection measures one intra-parallel section (8 tasks, two
// replicas) including update shipping.
func benchIntraSection(b *testing.B) {
	_, err := experiments.RunProgram(experiments.ClusterConfig{Logical: 1, Mode: experiments.Intra},
		func(rt core.Runner) {
			out := make(core.Float64s, 1024)
			for i := 0; i < b.N; i++ {
				rt.SectionBegin()
				id := rt.TaskRegister(func(c core.Ctx, args []core.Value) {
					c.Compute(perf.Work{Flops: 1000})
				}, core.Out)
				for k := 0; k < 8; k++ {
					rt.TaskLaunch(id, out[k*128:(k+1)*128])
				}
				if err := rt.SectionEnd(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	if err != nil {
		b.Fatal(err)
	}
}

// benchReplayTrial measures one classic campaign trial of the GTC p8 point
// by op-trace replay under a crash schedule, swept on one pooled engine
// the way campaigns sweep their trials.
func benchReplayTrial(b *testing.B) {
	spec, err := experiments.SpecFor(scenario.Scenario{
		Name: "micro/gtc/classic/p8", App: "gtc", Config: gtcConfig, Mode: scenario.Classic, Logical: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := experiments.SweepN(1, []experiments.Spec{spec})
	if err != nil {
		b.Fatal(err)
	}
	if spec.Replay, err = experiments.RecordTraces(spec); err != nil {
		b.Fatal(err)
	}
	// Four expected failures per replica slot over the run: every trial
	// crashes, so no two trials share a memo key.
	wall := ref[0].Measure.Wall
	specs := make([]experiments.Spec, b.N)
	for i := range specs {
		specs[i] = spec
		specs[i].Name = fmt.Sprintf("micro/t%d", i)
		specs[i].Fault = fault.ExponentialDraw(8, 2, wall/4, wall, int64(i)).Schedule
	}
	b.ResetTimer()
	if _, err := experiments.SweepN(1, specs); err != nil {
		b.Fatal(err)
	}
}

// benchSpMV measures one 27-point sparse matrix-vector product over a
// 16x16x16 slab with both halo planes (HPCCG's sparsemv).
func benchSpMV(b *testing.B) {
	m := kernels.Gen27Point(16, 16, 16, true, true)
	x := make([]float64, m.Rows+2*16*16)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.Rows)
	for b.Loop() {
		m.MulVec(x, y)
	}
}

// benchGen27 measures generating that matrix (HPCCG's per-run set-up).
func benchGen27(b *testing.B) {
	for b.Loop() {
		kernels.Gen27Point(16, 16, 16, true, true)
	}
}

// benchStencil27 measures one 27-point stencil sweep over a 32^3 slab
// (AMG and MiniGhost).
func benchStencil27(b *testing.B) {
	in, out := kernels.NewSlab(32, 32, 32), kernels.NewSlab(32, 32, 32)
	for i := range in.V {
		in.V[i] = float64(i % 7)
	}
	for b.Loop() {
		kernels.Stencil27Range(in, out, 26, -1, 0, 32)
	}
}

// benchPICPush measures one particle push of 4096 particles over 64 cells
// (GTC).
func benchPICPush(b *testing.B) {
	p := kernels.NewParticles(4096, 0, 64)
	phi := make([]float64, 64)
	for i := range phi {
		phi[i] = math.Sin(float64(i))
	}
	for b.Loop() {
		kernels.Push(p.Psi, p.Vpar, phi, 0, 64, 0.02)
	}
}

// benchDraw measures one clamped failure draw for a degree-2, 8-rank
// replicated trial.
func benchDraw(b *testing.B) {
	seed := int64(0)
	for b.Loop() {
		fault.ExponentialDraw(8, 2, sim.Seconds(0.1), sim.Seconds(0.2), seed)
		seed++
	}
}

// benchDrawUnclamped measures one unclamped failure trace for an 8-node
// checkpoint/restart trial.
func benchDrawUnclamped(b *testing.B) {
	seed := int64(0)
	for b.Loop() {
		fault.ExponentialDrawUnclamped(8, 1, sim.Seconds(0.1), sim.Seconds(0.2), seed)
		seed++
	}
}

// benchCkptReplay measures one checkpoint/restart replay of 0.5 s of work
// under a seeded failure trace.
func benchCkptReplay(b *testing.B) {
	d := fault.ExponentialDrawUnclamped(8, 1, sim.Seconds(0.1), sim.Seconds(2), 1)
	failures := make([]float64, len(d.Schedule.Crashes))
	for i, c := range d.Schedule.Crashes {
		failures[i] = c.Time.Seconds()
	}
	p := ckptsim.Params{Tau: 0.05, Delta: 0.01, Restart: 0.01}
	if _, err := ckptsim.Replay(0.5, p, failures); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		ckptsim.Replay(0.5, p, failures)
	}
}

// storeRecord is a payload about the size of a stored sweep result.
type storeRecord struct {
	Name    string    `json:"name"`
	Wall    float64   `json:"wall_seconds"`
	Events  uint64    `json:"sim_events"`
	Kernels []float64 `json:"kernels"`
}

func newStoreRecord(i int) storeRecord {
	r := storeRecord{Name: "micro/" + strconv.Itoa(i), Wall: float64(i) / 7, Events: uint64(i) * 1000}
	for k := 0; k < 32; k++ {
		r.Kernels = append(r.Kernels, float64(i*k)/3)
	}
	return r
}

// openMicroStore opens a store in a fresh temporary directory; the
// returned function closes and removes it.
func openMicroStore(b *testing.B) (*store.Store, func()) {
	dir, err := os.MkdirTemp("", "perfbench-micro-")
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(dir, "micro")
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	return st, func() {
		st.Close()
		os.RemoveAll(dir)
	}
}

// benchStoreGet measures one cache hit among 1024 records.
func benchStoreGet(b *testing.B) {
	st, done := openMicroStore(b)
	defer done()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = store.Key(strconv.Itoa(i))
		if err := st.Put("micro", keys[i], newStoreRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	i := 0
	for b.Loop() {
		if _, ok := st.Get("micro", keys[i%len(keys)]); !ok {
			b.Fatal("store miss")
		}
		i++
	}
}

// benchStorePut measures persisting one record: encode, checksum, append.
func benchStorePut(b *testing.B) {
	st, done := openMicroStore(b)
	defer done()
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = store.Key(strconv.Itoa(i))
	}
	rec := newStoreRecord(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put("micro", keys[i], rec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClusterAlloc measures one 12-node placement and release on a
// partly fragmented 32-node jobstream cluster.
func benchClusterAlloc(b *testing.B) {
	cl := jobstream.NewCluster(32)
	cl.Alloc(7, nil)
	dst := make([]int, 0, 32)
	for b.Loop() {
		cl.Release(cl.Alloc(12, dst[:0]))
	}
}
