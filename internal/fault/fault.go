// Package fault injects crash-stop failures into replicated runs: at fixed
// virtual times, at protocol points inside intra-parallel sections (the
// three cases of §III-B2), or randomly following an exponential MTBF, as a
// real machine would produce them.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
)

// At schedules a crash of replica (logical, lane) at virtual time t.
func At(e *sim.Engine, sys *replication.System, logical, lane int, t sim.Time) {
	e.At(t, func() { sys.KillReplica(logical, lane) })
}

// Point identifies a protocol point inside a section (§III-B2).
type Point uint8

// Protocol points at which a crash can be injected.
const (
	BeforeExec Point = iota // before the task body runs
	AfterExec               // after the body, before any update is sent
	MidUpdate               // after one argument's update has been sent
)

func (p Point) String() string {
	switch p {
	case BeforeExec:
		return "before-exec"
	case AfterExec:
		return "after-exec"
	case MidUpdate:
		return "mid-update"
	}
	return "?"
}

// CrashPlan crashes the calling replica the n-th time the given protocol
// point is reached (counting from 1). Install it in core.Options.Hooks.
type CrashPlan struct {
	Point Point
	Nth   int
	count int
	fired bool
}

// Reset re-arms the plan. A CrashPlan is stateful (it counts protocol
// points and fires once); reusing one across runs without a Reset means the
// second run inherits count/fired from the first and never crashes.
func (cp *CrashPlan) Reset() {
	cp.count = 0
	cp.fired = false
}

// Hooks builds the intra-engine hooks implementing the plan for the given
// replica. Pass p == nil (or install on one replica only) elsewhere.
func (cp *CrashPlan) Hooks(self *replication.Proc) core.Hooks {
	trigger := func() {
		cp.count++
		if !cp.fired && cp.count == cp.Nth {
			cp.fired = true
			self.R.Crash()
		}
	}
	var h core.Hooks
	switch cp.Point {
	case BeforeExec:
		h.BeforeTaskExec = func(_, _ int) { trigger() }
	case AfterExec:
		h.AfterTaskExec = func(_, _ int) { trigger() }
	case MidUpdate:
		h.AfterArgSend = func(_, _, _ int) { trigger() }
	}
	return h
}

// Schedule is a reproducible set of timed replica crashes.
type Schedule struct {
	Crashes []Crash
}

// Crash is one scheduled failure.
type Crash struct {
	Logical, Lane int
	Time          sim.Time
}

// Install arms every crash of the schedule on the engine, in canonical
// (time, logical, lane) order. The engine breaks equal-time ties by
// insertion order, so arming in the same canonical order Fingerprint
// keys by is what makes two set-equal schedules — including ones with
// same-time crashes — genuinely interchangeable under the sweep memo.
func (s *Schedule) Install(e *sim.Engine, sys *replication.System) {
	crashes := append([]Crash(nil), s.Crashes...)
	sortCrashes(crashes)
	for _, c := range crashes {
		At(e, sys, c.Logical, c.Lane, c.Time)
	}
}

// Fingerprint returns a compact content key of the schedule: two schedules
// with equal fingerprints arm identical crashes. Crashes are canonicalized
// by (time, logical, lane) order first — installing a schedule arms the
// same events whatever the slice order, so two shuffles of one schedule
// must key identically or they defeat the sweep memo. The empty schedule
// fingerprints to "", so a fault-free trial keys identically to a spec with
// no schedule at all — which is what lets a sweep memo serve it from the
// fault-free baseline run.
func (s *Schedule) Fingerprint() string {
	if s == nil || len(s.Crashes) == 0 {
		return ""
	}
	crashes := append([]Crash(nil), s.Crashes...)
	sortCrashes(crashes)
	var b strings.Builder
	for _, c := range crashes {
		fmt.Fprintf(&b, "%d:%d@%d;", c.Logical, c.Lane, int64(c.Time))
	}
	return b.String()
}

// sortCrashes orders crashes canonically by (time, logical, lane).
func sortCrashes(cs []Crash) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Time != cs[j].Time {
			return cs[i].Time < cs[j].Time
		}
		if cs[i].Logical != cs[j].Logical {
			return cs[i].Logical < cs[j].Logical
		}
		return cs[i].Lane < cs[j].Lane
	})
}

// Exponential draws a crash schedule from an exponential per-replica MTBF
// over the horizon, never killing both replicas of the same logical rank
// (the paper's metric assumes the run is not interrupted; a double failure
// would force a checkpoint restart). The result is deterministic in seed.
func Exponential(logical, degree int, mtbf, horizon sim.Time, seed int64) *Schedule {
	return ExponentialDraw(logical, degree, mtbf, horizon, seed).Schedule
}

// Draw is one Monte Carlo draw of the failure process: the survivable crash
// schedule plus the failures the survivability clamp suppressed.
type Draw struct {
	Schedule *Schedule
	// Suppressed counts drawn failures that were dropped because they would
	// have killed the last replica of a logical rank. A nonzero count means
	// the raw failure process would have interrupted this run: in a real
	// system the application falls back to checkpoint restart (§II), so
	// campaigns report it as a survival statistic.
	Suppressed int
}

// ExponentialDraw is Exponential exposing the full draw: the schedule plus
// the count of suppressed last-replica kills. Deterministic in seed, and
// consuming the generator identically to Exponential for every (logical,
// degree, mtbf, horizon).
//
// The survivability clamp is deliberately lane-ordered: lanes draw in
// index order, so when every lane of a logical rank would crash, the
// lower-indexed lanes are the ones killed and the highest-indexed lane is
// the spared survivor. The choice is pinned by a seeded regression test
// (TestExponentialDrawLaneBias): which lane survives changes every drawn
// schedule, so it must not drift accidentally.
func ExponentialDraw(logical, degree int, mtbf, horizon sim.Time, seed int64) Draw {
	rng := newRand(seed)
	d := Draw{Schedule: &Schedule{}}
	killed := make(map[int]int) // logical -> kills so far
	for r := 0; r < logical; r++ {
		for l := 0; l < degree; l++ {
			t := expVariate(rng, mtbf)
			if t >= horizon {
				continue
			}
			if killed[r]+1 >= degree {
				d.Suppressed++
				continue // keep at least one replica alive
			}
			killed[r]++
			d.Schedule.Crashes = append(d.Schedule.Crashes, Crash{Logical: r, Lane: l, Time: t})
		}
	}
	return d
}

// ExponentialDrawUnclamped draws the complete failure trace of every
// replica slot over the horizon: a Poisson (renewal) process per slot with
// repeated failures and no last-replica suppression. It models fault
// tolerance that repairs or restarts failed nodes — the coordinated
// checkpoint/restart path — where losing every replica of a rank is
// survivable (it just forces another rollback) and a restarted node can
// fail again.
//
// It collects a Stream: crashes come sorted by (time, logical, lane), a
// larger horizon extends the trace without disturbing the failures
// already inside the smaller window, and Suppressed is always zero.
// Consumers that stop early pull from the Stream instead.
func ExponentialDrawUnclamped(logical, degree int, mtbf, horizon sim.Time, seed int64) Draw {
	d := Draw{Schedule: &Schedule{}}
	s := NewStream(logical, degree, mtbf, horizon, seed)
	for c, ok := s.Next(); ok; c, ok = s.Next() {
		d.Schedule.Crashes = append(d.Schedule.Crashes, c)
	}
	return d
}

// Never is the failure time of a slot whose next failure lies past the
// largest representable virtual time.
const Never = sim.Time(math.MaxInt64)

// Renewal is one replica slot's failure process: exponential inter-arrival
// times of mean mtbf (expStep) from the slot's own generator, accumulated
// in virtual time. This sequential construction of a Poisson process needs
// no window: a consumer draws exactly the failures it uses, and drawing
// further never changes the ones already drawn.
type Renewal struct {
	rng  *rand.Rand
	mtbf sim.Time
	Next sim.Time // the slot's next failure, not yet consumed
}

// NewRenewal starts the failure process of slot (logical, lane) of the
// trace seeded by seed: the slot's sub-stream is TrialSeed(seed, logical,
// lane).
func NewRenewal(logical, lane int, mtbf sim.Time, seed int64) Renewal {
	r := Renewal{rng: newRand(TrialSeed(seed, logical, lane)), mtbf: mtbf}
	r.Advance()
	return r
}

// Advance consumes Next and draws the failure after it, saturating at
// Never instead of overflowing.
func (r *Renewal) Advance() {
	dt := expStep(r.rng, r.mtbf)
	r.Next = min(r.Next, Never-dt) + dt
}

// Stream merges the renewal processes of logical×degree replica slots into
// one failure trace in canonical (time, logical, lane) order, cut at a
// horizon: the crashes ExponentialDrawUnclamped collects over that
// horizon, drawn only as they are pulled. A consumer that stops after n
// failures has drawn n plus one per slot.
type Stream struct {
	degree  int
	horizon sim.Time
	slots   []Renewal // slot r*degree+l is (logical r, lane l)
}

// NewStream starts the unclamped failure trace seeded by seed, cut at
// horizon (Never for an uncut one).
func NewStream(logical, degree int, mtbf, horizon sim.Time, seed int64) Stream {
	s := Stream{degree: degree, horizon: horizon, slots: make([]Renewal, logical*degree)}
	for i := range s.slots {
		s.slots[i] = NewRenewal(i/degree, i%degree, mtbf, seed)
	}
	return s
}

// Next pulls the earliest failure not yet pulled, false once every slot's
// next failure lies at or past the horizon. Equal times go to the lower
// slot, which is sortCrashes' (logical, lane) order.
func (s *Stream) Next() (Crash, bool) {
	best := 0
	for i := range s.slots {
		if s.slots[i].Next < s.slots[best].Next {
			best = i
		}
	}
	if len(s.slots) == 0 || s.slots[best].Next >= s.horizon {
		return Crash{}, false
	}
	c := Crash{Logical: best / s.degree, Lane: best % s.degree, Time: s.slots[best].Next}
	s.slots[best].Advance()
	return c, true
}

// expStep draws one exponential inter-arrival time, clamped to at least one
// virtual nanosecond so a pathologically small variate cannot stall the
// renewal loop.
func expStep(rng *rand.Rand, mtbf sim.Time) sim.Time {
	return max(expVariate(rng, mtbf), 1)
}

// expVariate draws one exponential time of mean mtbf, saturating at Never:
// an MTBF that sim.CheckSeconds accepts can still scale a variate past
// 2^63 ns, where converting the product to sim.Time would wrap.
func expVariate(rng *rand.Rand, mtbf sim.Time) sim.Time {
	x := rng.ExpFloat64() * float64(mtbf)
	if x >= float64(Never) { // float64(Never) rounds up to 2^63
		return Never
	}
	return sim.Time(x)
}

// TrialSeed derives the RNG seed of one campaign trial from the campaign
// seed and the (scenario, trial) coordinates, via a splitmix64 mix: nearby
// coordinates give statistically independent streams, and the mapping is
// stable across runs and worker counts.
func TrialSeed(base int64, scenario, trial int) int64 {
	x := uint64(base) ^ 0x9e3779b97f4a7c15*uint64(scenario+1) ^ 0xbf58476d1ce4e5b9*uint64(trial+1)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
