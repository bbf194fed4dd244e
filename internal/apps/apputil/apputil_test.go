package apputil

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestTaskBoundsCoverEverything(t *testing.T) {
	prop := func(nRaw, tRaw uint8) bool {
		n := int(nRaw) + 1
		tasks := int(tRaw)%16 + 1
		covered := 0
		prevHi := 0
		for i := 0; i < tasks; i++ {
			lo, hi := TaskBounds(n, tasks, i)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskBoundsBalance(t *testing.T) {
	// No task may be more than one element larger than another.
	for _, n := range []int{7, 8, 100, 1000} {
		for _, tasks := range []int{1, 3, 8} {
			min, max := n, 0
			for i := 0; i < tasks; i++ {
				lo, hi := TaskBounds(n, tasks, i)
				if hi-lo < min {
					min = hi - lo
				}
				if hi-lo > max {
					max = hi - lo
				}
			}
			if max-min > 1 {
				t.Fatalf("n=%d tasks=%d: sizes vary by %d", n, tasks, max-min)
			}
		}
	}
}

func TestClockTracksWallAndNames(t *testing.T) {
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 1)
	w := mpi.NewWorld(e, net, 1, perf.Grid5000, nil)
	w.Launch("p", 0, func(r *mpi.Rank) {
		rt := core.NewNative(r)
		c := NewClock(rt)
		c.Track("beta", func() { rt.Compute(perf.Work{Flops: 2e9}) }) // 1 s
		c.Track("alpha", func() { rt.Compute(perf.Work{Flops: 4e9}) })
		c.Track("alpha", func() { rt.Compute(perf.Work{Flops: 4e9}) })
		if got := c.Times["beta"].Wall; got != sim.Second {
			t.Errorf("beta wall = %v", got)
		}
		if got := c.Times["alpha"]; got.Wall != 4*sim.Second || got.Calls != 2 {
			t.Errorf("alpha = %+v", got)
		}
		names := c.Names()
		if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
			t.Errorf("names = %v", names)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeZHalo(t *testing.T) {
	const n, wire = 3, 1000
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, n)
	w := mpi.NewWorld(e, net, n, perf.Grid5000, nil)
	below, above := make([]float64, n), make([]float64, n)
	w.LaunchAll("p", func(r *mpi.Rank) {
		me := float64(r.Rank())
		if err := ExchangeZHalo(core.NewNative(r), 7, 8, []float64{10*me + 1}, []float64{10*me + 2},
			below[r.Rank():r.Rank()+1], above[r.Rank():r.Rank()+1], wire); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each halo holds the facing boundary plane of the neighbor; the first
	// and last rank leave their outer halo alone.
	if want := []float64{0, 2, 12}; !slices.Equal(below, want) {
		t.Errorf("below halos = %v, want %v", below, want)
	}
	if want := []float64{11, 21, 0}; !slices.Equal(above, want) {
		t.Errorf("above halos = %v, want %v", above, want)
	}
	for rank, msgs := range []int64{1, 2, 1} {
		if got := w.StatsOf(rank).BytesSent; got != msgs*(64+wire) {
			t.Errorf("rank %d sent %d bytes, want %d messages of %d modeled payload bytes", rank, got, msgs, wire)
		}
	}
}
