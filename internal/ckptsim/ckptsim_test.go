package ckptsim_test

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ckptsim"
	"repro/internal/fault"
	"repro/internal/sim"
)

func mustReplay(t *testing.T, work float64, p ckptsim.Params, failures []float64) ckptsim.Trial {
	t.Helper()
	tr, err := ckptsim.Replay(work, p, failures)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFaultFreeMakespan(t *testing.T) {
	p := ckptsim.Params{Tau: 10, Delta: 1, Restart: 2}
	// 35s of work: segments 10+10+10+5, checkpoints after the first three.
	if got := p.FaultFreeMakespan(35); got != 38 {
		t.Fatalf("fault-free makespan = %v, want 38", got)
	}
	// Work fits in one interval: no checkpoint at all.
	if got := p.FaultFreeMakespan(7); got != 7 {
		t.Fatalf("single-segment makespan = %v, want 7", got)
	}
	// An exact multiple of tau skips the final checkpoint too.
	if got := p.FaultFreeMakespan(20); got != 21 {
		t.Fatalf("two-segment makespan = %v, want 21", got)
	}
	if got := mustReplay(t, 35, p, nil).Makespan; got != 38 {
		t.Fatalf("empty trace replay = %v, want 38", got)
	}
	if got := mustReplay(t, 0, p, []float64{1}).Makespan; got != 0 {
		t.Fatalf("zero work = %v, want 0", got)
	}
}

func TestReplayRollback(t *testing.T) {
	p := ckptsim.Params{Tau: 10, Delta: 1, Restart: 2}
	// Failure at t=15: one full cycle (work [0,10], ckpt [10,11]) secured
	// 10s; the 4s into the second segment are lost. Restart at 17, then
	// 25s of work remain: 17 + 25 + 2*1 = 44.
	tr := mustReplay(t, 35, p, []float64{15})
	if tr.Failures != 1 || tr.Makespan != 44 {
		t.Fatalf("got %+v, want 1 failure, makespan 44", tr)
	}
	// Failure mid-checkpoint (t=10.5) destroys the half-written checkpoint:
	// nothing secured, restart at 12.5, full 38s schedule follows.
	tr = mustReplay(t, 35, p, []float64{10.5})
	if tr.Failures != 1 || tr.Makespan != 12.5+38 {
		t.Fatalf("mid-checkpoint: got %+v, want makespan %v", tr, 12.5+38)
	}
	// Failure during the restart restarts it: failures at 15 and 16 (inside
	// the [15,17] restart window) => resume at 18, same secured work.
	tr = mustReplay(t, 35, p, []float64{15, 16})
	if tr.Failures != 2 || tr.Makespan != 18+25+2 {
		t.Fatalf("restart restart: got %+v, want makespan 45", tr)
	}
	// Failures after completion are ignored.
	tr = mustReplay(t, 35, p, []float64{100, 200})
	if tr.Failures != 0 || tr.Makespan != 38 {
		t.Fatalf("post-completion failures counted: %+v", tr)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := ckptsim.Replay(10, ckptsim.Params{Tau: 0, Delta: 1}, nil); err == nil {
		t.Fatal("tau = 0 must error")
	}
	if _, err := ckptsim.Replay(10, ckptsim.Params{Tau: 1, Delta: -1}, nil); err == nil {
		t.Fatal("negative delta must error")
	}
	if _, err := ckptsim.Replay(-1, ckptsim.Params{Tau: 1}, nil); err == nil {
		t.Fatal("negative work must error")
	}
	// Non-finite parameters used to replay into NaN makespans.
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		work float64
		p    ckptsim.Params
	}{
		{10, ckptsim.Params{Tau: inf}},
		{10, ckptsim.Params{Tau: nan}},
		{10, ckptsim.Params{Tau: 1, Delta: nan}},
		{10, ckptsim.Params{Tau: 1, Delta: inf}},
		{10, ckptsim.Params{Tau: 1, Restart: inf}},
		{10, ckptsim.Params{Tau: 1, Restart: nan}},
		{inf, ckptsim.Params{Tau: 1}},
		{nan, ckptsim.Params{Tau: 1}},
	} {
		if _, err := ckptsim.Replay(c.work, c.p, nil); err == nil {
			t.Errorf("work %g under %+v must error", c.work, c.p)
		}
	}
}

// TestReplayMatchesDaly is the measured-vs-analytic acceptance property:
// replaying exponential failure traces reproduces Daly's expected
// efficiency E = 1/w(tau) at the same operating point. At a moderate
// system MTBF (work ~ MTBF) the mean over seeded trials lands within 5%
// of the model; near the paper's low-MTBF collapse the measured mean
// stays below the moderate-MTBF efficiency and keeps tracking the model.
func TestReplayMatchesDaly(t *testing.T) {
	const (
		nodes  = 16
		work   = 40.0
		trials = 3000
	)
	p := ckptsim.Params{Delta: 1, Restart: 1}
	measure := func(nodeMTBF float64) float64 {
		sysMTBF := nodeMTBF / nodes
		p := p
		p.Tau = ckpt.OptimalInterval(p.Delta, p.Restart, sysMTBF)
		sum := 0.0
		for s := int64(0); s < trials; s++ {
			// Draw the per-node failure trace over a window, growing it
			// until it covers the stretched makespan (the campaign layer's
			// protocol).
			h := 4 * work
			var tr ckptsim.Trial
			for {
				d := fault.ExponentialDrawUnclamped(nodes, 1, sim.Seconds(nodeMTBF), sim.Seconds(h), s)
				times := make([]float64, len(d.Schedule.Crashes))
				for i, c := range d.Schedule.Crashes {
					times[i] = c.Time.Seconds()
				}
				tr = mustReplay(t, work, p, times)
				if tr.Makespan <= h {
					break
				}
				h *= 2
			}
			sum += work / tr.Makespan
		}
		return sum / trials
	}

	moderate := 16 * work // system MTBF == work
	eff := measure(moderate)
	want := ckpt.BestEfficiency(p.Delta, p.Restart, moderate/nodes)
	if math.Abs(eff-want)/want > 0.05 {
		t.Fatalf("moderate MTBF: measured %v vs Daly %v (>5%% off)", eff, want)
	}

	low := 16 * work / 20 // system MTBF == work/20: the §II collapse
	lowEff := measure(low)
	lowWant := ckpt.BestEfficiency(p.Delta, p.Restart, low/nodes)
	if lowEff >= eff {
		t.Fatalf("efficiency must collapse with MTBF: %v at low vs %v at moderate", lowEff, eff)
	}
	if math.Abs(lowEff-lowWant)/lowWant > 0.10 {
		t.Fatalf("low MTBF: measured %v vs Daly %v (>10%% off)", lowEff, lowWant)
	}
}

// TestReplayDeterministic: identical traces give identical trials.
func TestReplayDeterministic(t *testing.T) {
	p := ckptsim.Params{Tau: 3, Delta: 0.5, Restart: 0.5}
	d := fault.ExponentialDrawUnclamped(8, 1, sim.Seconds(5), sim.Seconds(200), 11)
	times := make([]float64, len(d.Schedule.Crashes))
	for i, c := range d.Schedule.Crashes {
		times[i] = c.Time.Seconds()
	}
	a := mustReplay(t, 20, p, times)
	b := mustReplay(t, 20, p, times)
	if a != b {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}
	if a.Makespan < 20 {
		t.Fatalf("makespan %v under the raw work", a.Makespan)
	}
}

// traceBytes encodes a failure trace the way FuzzReplay decodes it.
func traceBytes(trace []float64) []byte {
	b := make([]byte, 0, 8*len(trace))
	for _, f := range trace {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// FuzzReplay checks the replay's invariants over arbitrary machines and
// failure traces. The domain is finite, valid parameters up to 1e9 s with
// at most a million checkpoint intervals of work, which keeps the
// checkpoint count ceil(work/tau) a finite, exact integer, and failure
// times in [0, 1e12] s; out-of-domain trace entries are dropped, the rest
// sorted.
// For every such input:
//   - Replay neither fails nor returns NaN;
//   - a run no failure hits before completion takes FaultFreeMakespan;
//   - the makespan is at least the work;
//   - no more failures hit than the trace holds;
//   - failures appended at or after the makespan change nothing;
//   - a Replayer fed the trace one failure at a time agrees exactly.
//
// The makespan is not bounded below by the fault-free one: when
// work/tau rounds up past an integer, the fault-free schedule counts one
// checkpoint too many, and a failure can remove it (the last seed).
// The other seeds are the cases of the tests above.
func FuzzReplay(f *testing.F) {
	for _, c := range []struct {
		work, tau, delta, restart float64
		trace                     []float64
	}{
		{35, 10, 1, 2, nil}, {7, 10, 1, 2, nil}, {20, 10, 1, 2, nil}, {0, 10, 1, 2, []float64{1}},
		{35, 10, 1, 2, []float64{15}}, {35, 10, 1, 2, []float64{10.5}},
		{35, 10, 1, 2, []float64{15, 16}}, {35, 10, 1, 2, []float64{100, 200}},
		{20, 3, 0.5, 0.5, []float64{0.5, 2, 2.1, 7, 9.5, 9.5, 30}},
		{140, 0.7999999999999999, 44.166666666666664, 2, []float64{50}},
	} {
		f.Add(c.work, c.tau, c.delta, c.restart, traceBytes(c.trace))
	}
	f.Fuzz(func(t *testing.T, work, tau, delta, restart float64, raw []byte) {
		p := ckptsim.Params{Tau: tau, Delta: delta, Restart: restart}
		for _, v := range []float64{work, tau, delta, restart} {
			if !(v >= 0 && v <= 1e9) {
				t.Skip("parameter outside the domain")
			}
		}
		if !(tau > 0) || work/tau > 1e6 {
			t.Skip("parameter outside the domain")
		}
		var trace []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(raw)); v >= 0 && v <= 1e12 {
				trace = append(trace, v)
			}
		}
		sort.Float64s(trace)

		tr, err := ckptsim.Replay(work, p, trace)
		if err != nil {
			t.Fatal(err)
		}
		ff := p.FaultFreeMakespan(work)
		switch {
		case math.IsNaN(tr.Makespan):
			t.Fatalf("NaN makespan: %+v", tr)
		case (len(trace) == 0 || trace[0] >= ff) && (tr.Makespan != ff || tr.Failures != 0):
			t.Fatalf("no failure before completion at %v, yet %+v", ff, tr)
		case tr.Makespan < work*(1-1e-12):
			t.Fatalf("makespan %v under the work %v", tr.Makespan, work)
		case tr.Failures > len(trace):
			t.Fatalf("%d failures from a trace of %d", tr.Failures, len(trace))
		}

		late := append([]float64(nil), trace...)
		late = append(late, tr.Makespan, tr.Makespan, 2*tr.Makespan+1)
		sort.Float64s(late)
		if got, err := ckptsim.Replay(work, p, late); err != nil || got != tr {
			t.Fatalf("failures after the makespan changed %+v into %+v (%v)", tr, got, err)
		}

		r, err := ckptsim.NewReplayer(work, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range trace {
			if !r.Fail(f) {
				break
			}
		}
		if r.Trial != tr {
			t.Fatalf("Replayer %+v, Replay %+v", r.Trial, tr)
		}
	})
}
