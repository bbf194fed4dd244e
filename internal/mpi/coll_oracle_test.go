package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Allreduce runs as an event-driven state machine (coll.go) that claims
// to reproduce, event for event, the blocking point-to-point algorithm it
// replaced. The references below are that algorithm, written the plain
// way from Isend, Irecv and Wait with coll.go's tags and step order, and
// TestCollectivesMatchBlockingReference holds the state machine to it on
// random worlds, payloads and crash times.

// refBcast is the binomial-tree broadcast from rank 0: every other rank
// receives from its parent, then every rank sends to each child in
// descending mask order, waiting for every send.
func refBcast(r *Rank, c *Comm, data []float64) error {
	n, me := c.Size(), r.RankIn(c)
	mask := 1
	if me == 0 {
		for mask < n {
			mask <<= 1
		}
	} else {
		for me&mask == 0 {
			mask <<= 1
		}
		rq := r.Irecv(c, me-mask, -opBcast)
		if err := r.Wait(rq); err != nil {
			return err
		}
		copy(data, rq.Msg().Data)
	}
	for mask >>= 1; mask >= 1; mask >>= 1 {
		if child := me + mask; child < n {
			if err := r.Wait(r.Isend(c, child, -opBcast, data, nil)); err != nil {
				return err
			}
		}
	}
	return nil
}

// refReduce is the binomial-tree reduction to rank 0: at each mask either
// send the partial result to the parent and stop, or receive a child's and
// fold it.
func refReduce(r *Rank, c *Comm, op ReduceOp, data []float64) error {
	n, me := c.Size(), r.RankIn(c)
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			return r.Wait(r.Isend(c, me-mask, -opReduce, data, nil))
		}
		if child := me + mask; child < n {
			rq := r.Irecv(c, child, -opReduce)
			if err := r.Wait(rq); err != nil {
				return err
			}
			op(data, rq.Msg().Data)
		}
	}
	return nil
}

// refAllreduce reduces to rank 0, then broadcasts from it.
func refAllreduce(r *Rank, c *Comm, op ReduceOp, data []float64) error {
	if err := refReduce(r, c, op, data); err != nil {
		return err
	}
	return refBcast(r, c, data)
}

// collRound is one allreduce every rank makes, after computing for its
// own random time.
type collRound struct {
	work []sim.Time  // per rank
	data [][]float64 // per rank
}

type collCase struct {
	n      int
	rounds []collRound
	victim int
	killAt sim.Time // negative: no crash
}

// rankOutcome is everything one rank observed, round by round, up to its
// first error or its crash.
type rankOutcome struct {
	ret   []sim.Time
	errs  []string
	bits  [][]uint64
	enter []sim.Time
	stats Stats
}

type collOutcome struct {
	ranks   []rankOutcome
	events  uint64
	now     sim.Time
	blocked []string // names of the processes a deadlock left parked
	runErr  string   // any other engine error
}

// magnitudes are the payload scales, 1e-10 .. 1e10.
var magnitudes = func() []float64 {
	var m []float64
	for e := -10; e <= 10; e++ {
		m = append(m, math.Pow(10, float64(e)))
	}
	return m
}()

func randCollCase(rng *rand.Rand) collCase {
	cs := collCase{n: 1 + rng.Intn(33), killAt: -1}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		var rd collRound
		elems := 1 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			elems = 1 + rng.Intn(512) // up to 4 KB: microseconds on the wire
		}
		for i := 0; i < cs.n; i++ {
			rd.work = append(rd.work, sim.Time(rng.Int63n(int64(50*sim.Microsecond))))
			buf := make([]float64, elems)
			for j := range buf {
				buf[j] = (2*rng.Float64() - 1) * magnitudes[rng.Intn(len(magnitudes))]
			}
			rd.data = append(rd.data, buf)
		}
		cs.rounds = append(cs.rounds, rd)
	}
	return cs
}

// runCollCase runs cs on a fresh world through the state machine, or
// through the blocking reference when ref is set.
func runCollCase(t *testing.T, cs collCase, ref bool) collOutcome {
	e, w := testWorld(t, cs.n)
	out := collOutcome{ranks: make([]rankOutcome, cs.n)}
	w.LaunchAll("p", func(r *Rank) {
		o := &out.ranks[r.Rank()]
		c := r.World()
		for _, rd := range cs.rounds {
			r.Compute(rd.work[r.Rank()])
			buf := append([]float64(nil), rd.data[r.Rank()]...)
			o.enter = append(o.enter, r.Now())
			var err error
			if ref {
				err = refAllreduce(r, c, OpSum, buf)
			} else {
				err = r.Allreduce(c, OpSum, buf)
			}
			o.ret = append(o.ret, r.Now())
			o.errs = append(o.errs, fmt.Sprint(err))
			bits := make([]uint64, len(buf))
			for i, v := range buf {
				bits[i] = math.Float64bits(v)
			}
			o.bits = append(o.bits, bits)
			if err != nil {
				return
			}
		}
	})
	if cs.killAt >= 0 {
		e.At(cs.killAt, func() { w.Kill(cs.victim) })
	}
	if err := e.Run(); err != nil {
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			out.runErr = err.Error()
		} else {
			for _, b := range dl.Blocked {
				name, _, _ := strings.Cut(b, ": ")
				out.blocked = append(out.blocked, name)
			}
			sort.Strings(out.blocked)
		}
	}
	out.events = e.Events()
	out.now = e.Now()
	for i := range out.ranks {
		out.ranks[i].stats = w.StatsOf(i)
	}
	e.Reset() // unwind the processes a deadlock left parked
	return out
}

// interrupts reports whether a crash at time at lands while some rank of
// the fault-free run is inside a collective.
func (o collOutcome) interrupts(at sim.Time) bool {
	for _, r := range o.ranks {
		for k := range r.enter {
			if r.enter[k] <= at && at < r.ret[k] {
				return true
			}
		}
	}
	return false
}

func diffCollOutcomes(sm, ref collOutcome) string {
	if sm.runErr != ref.runErr {
		return fmt.Sprintf("engine error %q, reference %q", sm.runErr, ref.runErr)
	}
	if !reflect.DeepEqual(sm.blocked, ref.blocked) {
		return fmt.Sprintf("deadlocked %v, reference %v", sm.blocked, ref.blocked)
	}
	if sm.events != ref.events || sm.now != ref.now {
		return fmt.Sprintf("%d events ending at %v, reference %d at %v", sm.events, sm.now, ref.events, ref.now)
	}
	for i := range sm.ranks {
		a, b := sm.ranks[i], ref.ranks[i]
		switch {
		case !reflect.DeepEqual(a.errs, b.errs):
			return fmt.Sprintf("rank %d errors %q, reference %q", i, a.errs, b.errs)
		case !reflect.DeepEqual(a.ret, b.ret):
			return fmt.Sprintf("rank %d returned at %v, reference %v", i, a.ret, b.ret)
		case !reflect.DeepEqual(a.bits, b.bits):
			return fmt.Sprintf("rank %d results %x, reference %x", i, a.bits, b.bits)
		case a.stats != b.stats:
			return fmt.Sprintf("rank %d stats %+v, reference %+v", i, a.stats, b.stats)
		}
	}
	return ""
}

// TestCollectivesMatchBlockingReference is the differential oracle for the
// allreduce state machine: on random world sizes (1..33), payloads mixing
// magnitudes from 1e-10 to 1e10 (so any change of fold order shows in the
// bits) and 1-3 back-to-back allreduces separated by random compute, the
// state machine and the blocking reference must agree on every rank's
// results bit for bit, every error and return time, every rank's Stats,
// the engine's event count and final time, and which processes a deadlock
// leaves parked. Half the cases crash a random rank at a time drawn inside
// the fault-free run's span.
func TestCollectivesMatchBlockingReference(t *testing.T) {
	const cases = 400
	rng := rand.New(rand.NewSource(1))
	crashes, interrupted, deadlocked := 0, 0, 0
	for i := 0; i < cases; i++ {
		cs := randCollCase(rng)
		clean := runCollCase(t, cs, false)
		if d := diffCollOutcomes(clean, runCollCase(t, cs, true)); d != "" {
			t.Fatalf("case %d (n=%d, fault-free): %s", i, cs.n, d)
		}
		if clean.runErr != "" || clean.blocked != nil {
			t.Fatalf("case %d (n=%d): fault-free run failed: %s%v", i, cs.n, clean.runErr, clean.blocked)
		}
		for k := range cs.rounds {
			for r := range clean.ranks {
				if !reflect.DeepEqual(clean.ranks[r].bits[k], clean.ranks[0].bits[k]) {
					t.Fatalf("case %d round %d: rank %d's allreduce result is not rank 0's", i, k, r)
				}
			}
		}
		if i%2 == 0 {
			continue
		}
		cs.victim = rng.Intn(cs.n)
		cs.killAt = sim.Time(rng.Int63n(int64(clean.now) + 1))
		crashes++
		if clean.interrupts(cs.killAt) {
			interrupted++
		}
		crashed := runCollCase(t, cs, false)
		if d := diffCollOutcomes(crashed, runCollCase(t, cs, true)); d != "" {
			t.Fatalf("case %d (n=%d, rank %d killed at %v): %s", i, cs.n, cs.victim, cs.killAt, d)
		}
		if crashed.blocked != nil {
			deadlocked++
		}
	}
	t.Logf("%d cases, %d with a crash: %d inside a collective, %d ending in a deadlock",
		cases, crashes, interrupted, deadlocked)
	if interrupted*2 < crashes {
		t.Fatalf("only %d of %d crashes landed inside a collective", interrupted, crashes)
	}
}
