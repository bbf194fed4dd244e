package jobstream

import (
	"fmt"
	"math"
	"sort"
)

// PendingJob is a queued job as schedulers see it.
type PendingJob struct {
	Width   int     // physical nodes the job occupies once placed
	Arrival float64 // submission time, seconds
	Est     float64 // fault-free service estimate, seconds
}

// RunEnd is one running job's completion. The simulator knows exact
// completion times (it computed them when the job was placed), so backfill
// reservations here are sharper than a real scheduler's walltime guesses —
// but a job's *own* Est can still undershoot its failure-stretched
// runtime, which is exactly the estimate error real backfill lives with.
type RunEnd struct {
	Time  float64
	Width int
}

// View is a scheduler's read-only picture of the cluster at one decision
// point. The simulator rebuilds it (into reused buffers) after every event
// and after every placement.
type View struct {
	Now     float64
	Nodes   int
	Free    int
	Pending []PendingJob // queue in arrival order
	RunEnds []RunEnd     // running jobs by ascending completion time
}

// Scheduler picks which pending job to place next. Next returns an index
// into v.Pending whose job must fit (Width <= v.Free), or -1 to wait for
// the next event. It is called again after every placement until it
// returns -1, so one decision point can place many jobs. A Scheduler may
// keep state; each (rate, scheduler, policy, trial) cell gets a fresh
// instance. The placement loop is an alloc-budgeted hot path: Next must
// not allocate.
type Scheduler interface {
	Name() string
	Next(v *View) int
}

// fcfs places strictly in arrival order: the head of the queue or nothing.
type fcfs struct{}

func (fcfs) Name() string { return "fcfs" }

func (fcfs) Next(v *View) int {
	if len(v.Pending) > 0 && v.Pending[0].Width <= v.Free {
		return 0
	}
	return -1
}

// easy is EASY backfill: FCFS, but when the head does not fit it computes
// the head's reservation (the shadow time at which enough nodes will have
// freed) and places any later job that fits now and either finishes by the
// shadow time or leaves the reservation's spare nodes untouched.
type easy struct{}

func (easy) Name() string { return "easy" }

func (easy) Next(v *View) int {
	if len(v.Pending) == 0 {
		return -1
	}
	if v.Pending[0].Width <= v.Free {
		return 0
	}
	// Reservation for the head: walk completions until it fits.
	shadow := math.Inf(1)
	spare := 0
	free := v.Free
	for _, re := range v.RunEnds {
		free += re.Width
		if free >= v.Pending[0].Width {
			shadow = re.Time
			spare = free - v.Pending[0].Width
			break
		}
	}
	for i := 1; i < len(v.Pending); i++ {
		p := v.Pending[i]
		if p.Width > v.Free {
			continue
		}
		if v.Now+p.Est <= shadow || p.Width <= spare {
			return i
		}
	}
	return -1
}

// kchoicesK is the probe width of the k-choices scheduler.
const kchoicesK = 4

// kchoices probes the first k queued jobs and places the widest one that
// fits (ties to the earliest arrival): a bounded-lookahead packing rule in
// the spirit of power-of-k-choices load balancing.
type kchoices struct{}

func (kchoices) Name() string { return "kchoices" }

func (kchoices) Next(v *View) int {
	best := -1
	for i := 0; i < len(v.Pending) && i < kchoicesK; i++ {
		if v.Pending[i].Width > v.Free {
			continue
		}
		if best < 0 || v.Pending[i].Width > v.Pending[best].Width {
			best = i
		}
	}
	return best
}

// RegistryEntry is one scheduler or policy, for sweep -list.
type RegistryEntry struct {
	Name        string
	Description string
}

// entry is one row of the scheduler or policy table: its sweep -list
// description and a constructor for a fresh instance.
type entry[T any] struct {
	desc string
	mk   func() T
}

// schedulers are the scheduler names workloads may use. Names are
// workload currency (files, store keys, CLI output).
var schedulers = map[string]entry[Scheduler]{
	"fcfs": {"first-come first-served: strict arrival order, no lookahead",
		func() Scheduler { return fcfs{} }},
	"easy": {"EASY backfill: FCFS head reservation, later jobs fill the holes",
		func() Scheduler { return easy{} }},
	"kchoices": {fmt.Sprintf("bounded lookahead: widest fitting job among the first %d queued", kchoicesK),
		func() Scheduler { return kchoices{} }},
}

// newScheduler instantiates a named scheduler.
func newScheduler(name string) (Scheduler, error) {
	return instantiate(schedulers, "scheduler", name)
}

// SchedulerList enumerates the schedulers, sorted by name.
func SchedulerList() []RegistryEntry { return list(schedulers) }

// instantiate builds the table's entry called name; what names the
// table's kind in the error for an unknown name.
func instantiate[T any](table map[string]entry[T], what, name string) (T, error) {
	ent, ok := table[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("jobstream: unknown %s %q (have %s)", what, name, nameList(list(table)))
	}
	return ent.mk(), nil
}

// list enumerates a table, sorted by name.
func list[T any](table map[string]entry[T]) []RegistryEntry {
	out := make([]RegistryEntry, 0, len(table))
	for name, ent := range table {
		out = append(out, RegistryEntry{Name: name, Description: ent.desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func nameList(entries []RegistryEntry) string {
	s := ""
	for i, e := range entries {
		if i > 0 {
			s += ", "
		}
		s += e.Name
	}
	return s
}
