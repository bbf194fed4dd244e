package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func testWorld(t *testing.T, n int) (*sim.Engine, *World) {
	t.Helper()
	e := sim.New()
	cfg := simnet.Config{
		Latency:        sim.Micros(1),
		Bandwidth:      1e9,
		LocalLatency:   sim.Micros(0.1),
		LocalBandwidth: 1e10,
		CoresPerNode:   4,
	}
	nodes := (n + cfg.CoresPerNode - 1) / cfg.CoresPerNode
	net := simnet.New(e, cfg, nodes)
	w := NewWorld(e, net, n, perf.Grid5000, nil)
	return e, w
}

func run(t *testing.T, e *sim.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	e, w := testWorld(t, 2)
	var got []float64
	w.LaunchAll("p", func(r *Rank) {
		switch r.Rank() {
		case 0:
			if err := r.Send(r.World(), 1, 7, []float64{1, 2, 3}, "hi"); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			msg, err := r.Recv(r.World(), 0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = msg.Data
			if msg.Meta != "hi" || msg.Src != 0 || msg.Tag != 7 {
				t.Errorf("bad envelope: %+v", msg)
			}
		}
	})
	run(t, e)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	e, w := testWorld(t, 2)
	var got float64
	w.LaunchAll("p", func(r *Rank) {
		if r.Rank() == 0 {
			buf := []float64{42}
			req := r.Isend(r.World(), 1, 0, buf, nil)
			buf[0] = -1 // mutate immediately; receiver must still see 42
			r.Wait(req)
		} else {
			msg, err := r.Recv(r.World(), 0, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = msg.Data[0]
		}
	})
	run(t, e)
	if got != 42 {
		t.Fatalf("got %v, want 42 (send did not copy)", got)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	e, w := testWorld(t, 2)
	done := false
	w.LaunchAll("p", func(r *Rank) {
		if r.Rank() == 1 {
			msg, err := r.Recv(r.World(), 0, 3)
			if err != nil || msg.Data[0] != 9 {
				t.Errorf("recv: %v %v", msg, err)
			}
			done = true
		} else {
			r.Compute(sim.Millisecond) // ensure recv is posted first
			r.Send(r.World(), 1, 3, []float64{9}, nil)
		}
	})
	run(t, e)
	if !done {
		t.Fatal("recv never completed")
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	e, w := testWorld(t, 3)
	var order []int
	w.LaunchAll("p", func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(r.World(), 2, 1, []float64{1}, nil)
		case 1:
			r.Send(r.World(), 2, 2, []float64{2}, nil)
		case 2:
			// Receive tag 2 first even though tag 1 likely arrives first.
			m2, err := r.Recv(r.World(), 1, 2)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			m1, err := r.Recv(r.World(), 0, 1)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			order = []int{int(m2.Data[0]), int(m1.Data[0])}
		}
	})
	run(t, e)
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	e, w := testWorld(t, 2)
	var got []float64
	w.LaunchAll("p", func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				r.Isend(r.World(), 1, 0, []float64{float64(i)}, nil)
			}
		} else {
			r.Compute(sim.Millisecond)
			for i := 0; i < 5; i++ {
				msg, err := r.Recv(r.World(), 0, 0)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				got = append(got, msg.Data[0])
			}
		}
	})
	run(t, e)
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestTryRecv(t *testing.T) {
	e, w := testWorld(t, 2)
	w.LaunchAll("p", func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 5, []float64{7}, nil)
		} else {
			if _, ok := r.TryRecv(r.World(), 0, 5); ok {
				t.Error("TryRecv matched before arrival")
			}
			r.Compute(sim.Millisecond)
			msg, ok := r.TryRecv(r.World(), 0, 5)
			if !ok || msg.Data[0] != 7 {
				t.Errorf("TryRecv after arrival: %v %v", msg, ok)
			}
		}
	})
	run(t, e)
}

func TestSelfSend(t *testing.T) {
	e, w := testWorld(t, 1)
	w.LaunchAll("p", func(r *Rank) {
		r.Isend(r.World(), 0, 0, []float64{3.14}, nil)
		msg, err := r.Recv(r.World(), 0, 0)
		if err != nil || msg.Data[0] != 3.14 {
			t.Errorf("self recv: %v %v", msg, err)
		}
	})
	run(t, e)
}

func TestComputeChargesTime(t *testing.T) {
	e, w := testWorld(t, 1)
	w.LaunchAll("p", func(r *Rank) {
		r.ComputeWork(perf.Work{Bytes: 3e9}) // 1 s at 3 GB/s
	})
	run(t, e)
	if e.Now() != sim.Second {
		t.Fatalf("now = %v, want 1s", e.Now())
	}
	if w.StatsOf(0).Compute != sim.Second {
		t.Fatalf("stats = %+v", w.StatsOf(0))
	}
}

func TestBlockedTimeAccounted(t *testing.T) {
	e, w := testWorld(t, 2)
	w.LaunchAll("p", func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(10 * sim.Millisecond)
			r.Send(r.World(), 1, 0, nil, nil)
		} else {
			r.Recv(r.World(), 0, 0)
		}
	})
	run(t, e)
	if b := w.StatsOf(1).Blocked; b < 10*sim.Millisecond {
		t.Fatalf("blocked = %v, want >= 10ms", b)
	}
}

func collectiveWorld(t *testing.T, n int) (*sim.Engine, *World) {
	return testWorld(t, n)
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			e, w := collectiveWorld(t, n)
			var releases []sim.Time
			w.LaunchAll("p", func(r *Rank) {
				r.Compute(sim.Time(r.Rank()) * sim.Millisecond)
				if err := r.Barrier(r.World()); err != nil {
					t.Errorf("barrier: %v", err)
				}
				releases = append(releases, r.Now())
			})
			run(t, e)
			if len(releases) != n {
				t.Fatalf("%d ranks released", len(releases))
			}
			slowest := sim.Time(n-1) * sim.Millisecond
			for _, rel := range releases {
				if rel < slowest {
					t.Fatalf("release %v before slowest entry %v", rel, slowest)
				}
			}
		})
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 8, 9} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			e, w := collectiveWorld(t, n)
			bad := false
			w.LaunchAll("p", func(r *Rank) {
				data := []float64{float64(r.Rank()), 1}
				if err := r.Allreduce(r.World(), OpSum, data); err != nil {
					t.Errorf("allreduce: %v", err)
				}
				wantSum := float64(n*(n-1)) / 2
				if data[0] != wantSum || data[1] != float64(n) {
					bad = true
				}
			})
			run(t, e)
			if bad {
				t.Fatal("wrong allreduce result")
			}
		})
	}
}

// TestAllreduceMaxMin runs Allreduce under caller-defined operators: the
// tree applies whatever fold it is given, not only OpSum.
func TestAllreduceMaxMin(t *testing.T) {
	opMax := func(dst, src []float64) {
		for i, v := range src {
			dst[i] = math.Max(dst[i], v)
		}
	}
	opMin := func(dst, src []float64) {
		for i, v := range src {
			dst[i] = math.Min(dst[i], v)
		}
	}
	e, w := collectiveWorld(t, 5)
	w.LaunchAll("p", func(r *Rank) {
		v := float64(r.Rank())
		mx, err := r.AllreduceScalar(r.World(), opMax, v)
		if err != nil || mx != 4 {
			t.Errorf("max = %v, %v", mx, err)
		}
		mn, err := r.AllreduceScalar(r.World(), opMin, v)
		if err != nil || mn != 0 {
			t.Errorf("min = %v, %v", mn, err)
		}
	})
	run(t, e)
}

func TestSubCommunicator(t *testing.T) {
	e, w := testWorld(t, 6)
	// Odd ranks form a communicator; allreduce must only involve them.
	sub := w.NewComm([]int{1, 3, 5})
	w.LaunchAll("p", func(r *Rank) {
		if r.Rank()%2 == 0 {
			return
		}
		if got := r.RankIn(sub); got != r.Rank()/2 {
			t.Errorf("RankIn = %d", got)
		}
		v, err := r.AllreduceScalar(sub, OpSum, 1)
		if err != nil || v != 3 {
			t.Errorf("sub allreduce = %v, %v", v, err)
		}
	})
	run(t, e)
	if sub.WorldRank(2) != 5 || sub.CommRank(3) != 1 || sub.CommRank(0) != -1 {
		t.Fatal("comm rank translation wrong")
	}
	if sub.Size() != 3 || len(sub.Members()) != 3 {
		t.Fatal("bad size")
	}
}

func TestRecvFromDeadRankFails(t *testing.T) {
	e, w := testWorld(t, 2)
	var gotErr error
	w.Launch("victim", 0, func(r *Rank) {
		r.Compute(sim.Second) // killed at 1ms, never sends
	})
	w.Launch("waiter", 1, func(r *Rank) {
		_, gotErr = r.Recv(r.World(), 0, 0)
	})
	e.At(sim.Millisecond, func() { w.Kill(0) })
	run(t, e)
	if !IsPeerDead(gotErr) {
		t.Fatalf("err = %v, want PeerDeadError", gotErr)
	}
	if !w.Dead(0) || w.Dead(1) {
		t.Fatal("death state wrong")
	}
}

func TestRecvPostedAfterDeathFails(t *testing.T) {
	e, w := testWorld(t, 2)
	var gotErr error
	w.Launch("victim", 0, func(r *Rank) { r.Compute(sim.Second) })
	w.Launch("waiter", 1, func(r *Rank) {
		r.Compute(10 * sim.Millisecond) // rank 0 already dead
		_, gotErr = r.Recv(r.World(), 0, 0)
	})
	e.At(sim.Millisecond, func() { w.Kill(0) })
	run(t, e)
	if !IsPeerDead(gotErr) {
		t.Fatalf("err = %v, want PeerDeadError", gotErr)
	}
}

func TestMessageSentBeforeDeathStillDelivered(t *testing.T) {
	e, w := testWorld(t, 2)
	var got float64
	var secondErr error
	w.Launch("victim", 0, func(r *Rank) {
		r.Send(r.World(), 1, 0, []float64{5}, nil)
		r.Compute(sim.Second)
	})
	w.Launch("waiter", 1, func(r *Rank) {
		msg, err := r.Recv(r.World(), 0, 0)
		if err != nil {
			t.Errorf("first recv should succeed: %v", err)
			return
		}
		got = msg.Data[0]
		_, secondErr = r.Recv(r.World(), 0, 0)
	})
	e.At(100*sim.Millisecond, func() { w.Kill(0) })
	run(t, e)
	if got != 5 {
		t.Fatalf("got %v", got)
	}
	if !IsPeerDead(secondErr) {
		t.Fatalf("second recv err = %v", secondErr)
	}
}

func TestInFlightMessageLostOnCrash(t *testing.T) {
	e, w := testWorld(t, 2)
	var gotErr error
	var killAt sim.Time
	w.Launch("victim", 0, func(r *Rank) {
		// Large message: both ranks share a node, so the 80 MB payload
		// takes 8 ms on the 10 GB/s local path. Crash at 1 ms kills it.
		req := r.Isend(r.World(), 1, 0, make([]float64, 10_000_000), nil)
		killAt = r.Now() + sim.Millisecond
		r.Wait(req)
	})
	w.Launch("waiter", 1, func(r *Rank) {
		_, gotErr = r.Recv(r.World(), 0, 0)
	})
	e.At(sim.Millisecond, func() { w.Kill(0) })
	run(t, e)
	_ = killAt
	if !IsPeerDead(gotErr) {
		t.Fatalf("err = %v, want PeerDeadError (message should be lost)", gotErr)
	}
}

func TestSendToDeadRankIsDropped(t *testing.T) {
	e, w := testWorld(t, 2)
	w.Launch("victim", 0, func(r *Rank) { r.Compute(sim.Second) })
	w.Launch("sender", 1, func(r *Rank) {
		r.Compute(10 * sim.Millisecond)
		if err := r.Send(r.World(), 0, 0, []float64{1}, nil); err != nil {
			t.Errorf("send to dead rank should not error: %v", err)
		}
	})
	e.At(sim.Millisecond, func() { w.Kill(0) })
	run(t, e)
}

// TestSendToDeadRankReleasesNICOnSenderCrash pins that a message to an
// already-crashed rank is an ordinary in-flight transfer: when its sender
// crashes before TxDone the transfer is canceled and the receiving node's
// NIC reservation rolled back, so later traffic into that node does not
// queue behind a message nobody will ever receive.
func TestSendToDeadRankReleasesNICOnSenderCrash(t *testing.T) {
	e, w := testWorld(t, 12) // 4 ranks per node: ranks 4 and 5 share node 1
	var arrived sim.Time
	w.Launch("sender", 0, func(r *Rank) {
		r.Compute(sim.Micros(1))
		// 1 MB to the dead rank 4 holds node 1's receive side for 1 ms.
		r.Wait(r.Isend(r.World(), 4, 0, make([]float64, 125_000), nil))
	})
	w.Launch("dead", 4, func(r *Rank) { r.Compute(sim.Second) })
	w.Launch("late", 8, func(r *Rank) {
		r.Compute(sim.Micros(600))
		if err := r.Send(r.World(), 5, 0, []float64{1}, nil); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	w.Launch("recv", 5, func(r *Rank) {
		if _, err := r.Recv(r.World(), 8, 0); err != nil {
			t.Errorf("recv: %v", err)
		}
		arrived = r.Now()
	})
	e.At(0, func() { w.Kill(4) })
	e.At(sim.Micros(500), func() { w.Kill(0) })
	run(t, e)
	// 600 us + 1 us latency + 72 bytes at 1 GB/s, with node 1's NIC free.
	if want := sim.Micros(601.072); arrived != want {
		t.Fatalf("float arrived at %v, want %v", arrived, want)
	}
}

func TestOnDeathHook(t *testing.T) {
	e, w := testWorld(t, 3)
	var deaths []int
	w.OnDeath(func(rank int) { deaths = append(deaths, rank) })
	w.LaunchAll("p", func(r *Rank) { r.Compute(sim.Second) })
	e.At(sim.Millisecond, func() { w.Kill(1) })
	run(t, e)
	if len(deaths) != 1 || deaths[0] != 1 {
		t.Fatalf("deaths = %v", deaths)
	}
}

func TestWaitallCollectsErrors(t *testing.T) {
	e, w := testWorld(t, 3)
	var err error
	w.Launch("dead", 0, func(r *Rank) { r.Compute(sim.Second) })
	w.Launch("ok", 1, func(r *Rank) {
		r.Send(r.World(), 2, 1, []float64{1}, nil)
	})
	w.Launch("waiter", 2, func(r *Rank) {
		r1 := r.Irecv(r.World(), 0, 1)
		r2 := r.Irecv(r.World(), 1, 1)
		err = r.Waitall([]*Request{r1, r2})
		if !r2.Done() || r2.Err() != nil {
			t.Error("healthy recv should complete")
		}
	})
	e.At(sim.Millisecond, func() { w.Kill(0) })
	run(t, e)
	if !IsPeerDead(err) {
		t.Fatalf("waitall err = %v", err)
	}
}

// Property: allreduce(sum) equals the serial sum for random contributions
// and random world sizes.
func TestAllreduceSumProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		contribs := make([]float64, n)
		var want float64
		for i := range contribs {
			contribs[i] = math.Round(rng.Float64()*1000) / 8
			want += contribs[i]
		}
		e, w := testWorld(t, n)
		ok := true
		w.LaunchAll("p", func(r *Rank) {
			got, err := r.AllreduceScalar(r.World(), OpSum, contribs[r.Rank()])
			if err != nil || math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
				ok = false
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random mesh of sends/recvs delivers every payload exactly
// once with matching content.
func TestRandomTrafficProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		msgs := rng.Intn(20) + 1
		type env struct{ src, dst, tag int }
		plan := make([]env, msgs)
		perDst := make(map[int][]env)
		for i := range plan {
			ev := env{src: rng.Intn(n), dst: rng.Intn(n), tag: rng.Intn(3)}
			plan[i] = ev
			perDst[ev.dst] = append(perDst[ev.dst], ev)
		}
		e, w := testWorld(t, n)
		received := 0
		w.LaunchAll("p", func(r *Rank) {
			me := r.Rank()
			for i, ev := range plan {
				if ev.src == me {
					r.Isend(r.World(), ev.dst, ev.tag, []float64{float64(i)}, nil)
				}
			}
			for _, ev := range perDst[me] {
				msg, err := r.Recv(r.World(), ev.src, ev.tag)
				if err != nil {
					return
				}
				idx := int(msg.Data[0])
				if plan[idx].src != ev.src || plan[idx].dst != me || plan[idx].tag != ev.tag {
					return
				}
				received++
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return received == msgs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
