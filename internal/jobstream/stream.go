package jobstream

import (
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Seed-stream lanes under fault.TrialSeed(seed, lane, trial): lane 0
// drives arrivals and class draws, lane 1 the node-failure trace. Every
// (scheduler, policy) cell of one trial re-derives both from the same
// coordinates, which is what makes the side-by-side comparison replay
// identical streams.
const (
	arrivalLane = 0
	failureLane = 1
)

// arrival is one generated job submission.
type arrival struct {
	at    float64 // submission time, seconds
	class int     // index into the workload mix
}

// genArrivals draws the trial's arrival stream: exponential interarrivals
// at the given rate and weighted class picks, both from one seeded
// generator. The interarrival draws are rate-independent uniforms scaled
// by 1/rate, so different rate points of one workload see common random
// numbers — a variance-reduction property, not a correctness requirement.
func genArrivals(w *scenario.Workload, rate float64, seed int64, trial int) []arrival {
	rng := rand.New(rand.NewSource(fault.TrialSeed(seed, arrivalLane, trial)))
	total := 0.0
	for _, c := range w.Mix {
		total += c.EffWeight()
	}
	out := make([]arrival, w.Jobs)
	t := 0.0
	for j := range out {
		t += rng.ExpFloat64() / rate
		pick := rng.Float64() * total
		class := len(w.Mix) - 1
		acc := 0.0
		for k, c := range w.Mix {
			acc += c.EffWeight()
			if pick < acc {
				class = k
				break
			}
		}
		out[j] = arrival{at: t, class: class}
	}
	return out
}

// failTrace is the trial's shared node-failure history: one exponential
// renewal process per node (slot (node, 0) of the trial's unclamped
// failure trace, as fault.ExponentialDrawUnclamped draws it). Each node is
// drawn only as far as a window asks, and drawing further never disturbs
// the failures already drawn, so every job can extend its own observation
// window independently and all cells of a trial agree on every node's
// history.
type failTrace struct {
	procs []fault.Renewal // nil when failure-free
	times [][]float64     // per node, ascending absolute seconds, drawn so far
}

func newFailTrace(nodes int, mtbfSeconds float64, seed int64) *failTrace {
	ft := &failTrace{}
	if mtbfSeconds > 0 {
		ft.procs, ft.times = make([]fault.Renewal, nodes), make([][]float64, nodes)
		for node := range ft.procs {
			ft.procs[node] = fault.NewRenewal(node, 0, sim.Seconds(mtbfSeconds), seed)
		}
	}
	return ft
}

// window returns node's failures in [from, to), ascending. The returned
// slice aliases the trace; callers copy what they keep.
func (ft *failTrace) window(node int, from, to float64) []float64 {
	if ft.procs == nil {
		return nil
	}
	p, ts := &ft.procs[node], ft.times[node]
	for p.Next < fault.Never && p.Next.Seconds() < to {
		ts = append(ts, p.Next.Seconds())
		p.Advance()
	}
	ft.times[node] = ts
	lo := sort.SearchFloat64s(ts, from)
	hi := lo + sort.SearchFloat64s(ts[lo:], to)
	return ts[lo:hi]
}
