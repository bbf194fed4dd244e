package mpi

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestScratchReleasesReclaimedWorld: once a world's traffic has drained and
// Reclaim has handed its inventory back, the world must become garbage
// while the scratch it drew from lives on, as a sweep worker's scratch
// outlives every trial it runs. The traffic mixes requests that return to
// the pool (blocking Send and Recv, WaitOwned, WaitallOwned) with requests
// nobody waits on (AsyncSend, a dropped Isend handle): a pooled request
// that still points at its last world, or that shares one allocation with
// a dropped handle that does, would keep the world and everything its
// ranks reference alive for the scratch's lifetime.
func TestScratchReleasesReclaimedWorld(t *testing.T) {
	sc := NewScratch()
	collected := make(chan struct{})
	func() {
		e := sim.New()
		net := simnet.New(e, simnet.InfiniBand20G, 2)
		w := NewWorld(e, net, 2, perf.Grid5000, nil)
		w.UseScratch(sc)
		// A cleanup, not a finalizer: the world lies on pointer cycles (its
		// ranks point back at it), and Go never finalizes an object
		// reachable from itself.
		runtime.AddCleanup(w, func(ch chan struct{}) { close(ch) }, collected)
		payload := make([]float64, 32)
		const rounds = 40
		w.Launch("a", 0, func(r *Rank) {
			for i := 0; i < rounds; i++ {
				if err := r.Send(r.World(), 1, 1, payload, nil); err != nil {
					t.Error(err)
					return
				}
				r.Isend(r.World(), 1, 2, payload, nil) // handle dropped, never waited
				reqs := []*Request{r.Isend(r.World(), 1, 3, payload, nil)}
				if err := r.WaitallOwned(reqs); err != nil {
					t.Error(err)
					return
				}
				r.Compute(sim.Micros(50))
			}
		})
		w.Launch("b", 1, func(r *Rank) {
			for i := 0; i < rounds; i++ {
				for _, tag := range []int{1, 2, 3, 4} {
					msg, err := r.WaitOwned(r.Irecv(r.World(), 0, tag))
					if err != nil {
						t.Error(err)
						return
					}
					w.RecycleMessage(msg)
				}
			}
		})
		// Send-log replay's path: engine-context sends nobody holds.
		for i := 0; i < rounds; i++ {
			e.At(sim.Time(i)*sim.Micros(50), func() { w.AsyncSend(0, w.World(), 1, 4, payload, nil, 256) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		w.Reclaim()
	}()
	if len(sc.reqFree) == 0 || len(sc.msgFree) == 0 {
		t.Fatalf("scratch holds %d requests and %d messages: the traffic never reached the pools",
			len(sc.reqFree), len(sc.msgFree))
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(sc)
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the reclaimed world is still reachable from its scratch after 10 forced GCs")
}
