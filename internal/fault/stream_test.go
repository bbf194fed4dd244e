package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

// windowDraw is the unclamped draw as it was before the stream: every
// slot's renewal process drawn whole over the window on the standard
// library's generator, then sorted. The stream must reproduce it exactly.
func windowDraw(logical, degree int, mtbf, horizon sim.Time, seed int64) []Crash {
	var out []Crash
	for r := 0; r < logical; r++ {
		for l := 0; l < degree; l++ {
			rng := rand.New(rand.NewSource(TrialSeed(seed, r, l)))
			for t := expStep(rng, mtbf); t < horizon; t += expStep(rng, mtbf) {
				out = append(out, Crash{Logical: r, Lane: l, Time: t})
			}
		}
	}
	sortCrashes(out)
	return out
}

// TestStreamMatchesWindowDraw: over random shapes, MTBFs, horizons and
// seeds, the collected stream equals the window draw, and an uncut stream
// yields that window's crashes first. MTBFs of a few nanoseconds put many
// slots on equal times, where the stream's lower-slot rule must match the
// sort's (logical, lane) order.
func TestStreamMatchesWindowDraw(t *testing.T) {
	pick := rand.New(rand.NewSource(3))
	ties := 0
	for i := 0; i < 300; i++ {
		logical, degree := 1+pick.Intn(16), 1+pick.Intn(3)
		mtbf := sim.Time(1 + pick.Intn(5))
		if i%3 != 0 {
			mtbf = sim.Seconds(0.001 + 2*pick.Float64())
		}
		horizon := sim.Time(pick.Float64() * 20 * float64(mtbf))
		seed := int64(pick.Uint64())

		want := windowDraw(logical, degree, mtbf, horizon, seed)
		got := ExponentialDrawUnclamped(logical, degree, mtbf, horizon, seed).Schedule.Crashes
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("case %d (%dx%d, mtbf %v, horizon %v, seed %d): stream %v, window draw %v",
				i, logical, degree, mtbf, horizon, seed, got, want)
		}
		uncut := NewStream(logical, degree, mtbf, Never, seed)
		for k, w := range want {
			c, ok := uncut.Next()
			if !ok || c != w {
				t.Fatalf("case %d: uncut stream crash %d = %+v (%v), window draw %+v", i, k, c, ok, w)
			}
			if k > 0 && want[k-1].Time == w.Time {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no case put two slots on one failure time")
	}
}

// TestHugeMTBFDrawsSaturate: an MTBF that sim.CheckSeconds accepts can
// still scale a variate past 2^63 ns. Such a draw saturates at Never, so
// it lies past every horizon; it must never wrap to a negative time or to
// the one-nanosecond clamp.
func TestHugeMTBFDrawsSaturate(t *testing.T) {
	mtbf, horizon := sim.Seconds(5e9), sim.Seconds(9e9)
	crashes, saturated := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		for _, c := range ExponentialDraw(8, 2, mtbf, horizon, seed).Schedule.Crashes {
			if c.Time < 0 || c.Time >= horizon {
				t.Fatalf("seed %d: crash %+v outside [0, %v)", seed, c, horizon)
			}
			crashes++
		}
		for slot := 0; slot < 16; slot++ {
			r := NewRenewal(slot/2, slot%2, mtbf, seed)
			if r.Next <= 1 {
				t.Fatalf("seed %d slot %d: first failure at %d ns", seed, slot, r.Next)
			}
			if r.Next == Never {
				saturated++
			}
		}
	}
	// About 16% of the variates pass 2^63 ns at this MTBF; the rest must
	// still be drawn.
	if crashes == 0 || saturated == 0 {
		t.Fatalf("%d crashes, %d saturated slots: the case misses the guard", crashes, saturated)
	}
}

// countDispersion is the index of dispersion of per-slot failure counts,
// sum (n_i - mean)^2 / mean: chi-square with slots-1 degrees of freedom
// when the counts are independent Poisson variates of one mean.
func countDispersion(counts []int) float64 {
	mean := 0.0
	for _, n := range counts {
		mean += float64(n)
	}
	mean /= float64(len(counts))
	d := 0.0
	for _, n := range counts {
		d += (float64(n) - mean) * (float64(n) - mean)
	}
	return d / mean
}

// TestUnclampedStreamIsPoisson checks the unclamped trace against the
// process it claims to be, one Poisson process of rate 1/MTBF per slot,
// through the conditional-uniform view: per-slot counts over [0, T] are
// Poisson(T/MTBF), and given their total, the failure times divided by T
// are iid uniform on [0, 1]. Both hold at a horizon and at its double,
// which extends the same trace. Thresholds are the 0.1% critical values
// (two-sided chi-square quantiles for 255 degrees of freedom; the KS
// value from testutil), so a correct stream fails one seed in a thousand;
// the seed is fixed.
func TestUnclampedStreamIsPoisson(t *testing.T) {
	const logical, degree = 64, 4
	const chiLo, chiHi = 187.17, 335.92 // chi-square(255) at 0.05% and 99.95%
	mtbf := sim.Second
	for _, horizon := range []sim.Time{20 * sim.Second, 40 * sim.Second} {
		d := ExponentialDrawUnclamped(logical, degree, mtbf, horizon, 11)
		counts := make([]int, logical*degree)
		u := make([]float64, len(d.Schedule.Crashes))
		for i, c := range d.Schedule.Crashes {
			counts[c.Logical*degree+c.Lane]++
			u[i] = float64(c.Time) / float64(horizon)
		}
		if disp := countDispersion(counts); disp < chiLo || disp > chiHi {
			t.Errorf("horizon %v: count dispersion %.1f outside [%v, %v]", horizon, disp, chiLo, chiHi)
		}
		if ks, crit := testutil.KSUniform(u); ks > crit {
			t.Errorf("horizon %v: KS %.4f of %d failure times against uniform exceeds %.4f",
				horizon, ks, len(u), crit)
		}
	}
}

// TestExponentialDrawLaneZeroIsTruncatedExponential: the clamped draw never
// suppresses lane 0 (the clamp spares a rank's last lane), so lane 0's
// crashes are its first exponential variates that fall inside the
// horizon, distributed as the exponential truncated there. Threshold: the
// 0.1% KS critical value, at a fixed seed range.
func TestExponentialDrawLaneZeroIsTruncatedExponential(t *testing.T) {
	const logical = 32
	mtbf, horizon := sim.Second, 1500*sim.Millisecond
	m, h := mtbf.Seconds(), horizon.Seconds()
	var u []float64
	for seed := int64(0); seed < 200; seed++ {
		for _, c := range ExponentialDraw(logical, 2, mtbf, horizon, seed).Schedule.Crashes {
			if c.Lane == 0 {
				u = append(u, -math.Expm1(-c.Time.Seconds()/m)/-math.Expm1(-h/m))
			}
		}
	}
	if ks, crit := testutil.KSUniform(u); ks > crit {
		t.Fatalf("KS %.4f of %d lane-0 crash times against the truncated exponential exceeds %.4f",
			ks, len(u), crit)
	}
}
