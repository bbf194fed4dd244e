package campaign

import (
	"encoding/json"
	"math"
)

// expansion is an exact float64 accumulator: the running sum is kept as a
// list of non-overlapping partials (Shewchuk's grow-expansion, the
// algorithm behind math.fsum), so adding a value loses no information and
// the represented total is the exact real-number sum of everything added.
// Exactness is what makes campaign aggregates mergeable: real-number
// addition is associative, so partial sums accumulated per shard and then
// merged represent the same exact total as one pooled pass, and the
// rounded statistics derived from them agree to the last ulp — a naive
// compensated sum could not promise that through the catastrophic
// cancellation in sumsq - sum²/n.
//
// Inputs must be finite; campaign metrics (makespans, slowdowns,
// efficiencies) always are.
type expansion struct {
	partials []float64 // non-overlapping, increasing magnitude
}

// add folds x into the expansion exactly (error-free transformation).
func (e *expansion) add(x float64) {
	i := 0
	for _, y := range e.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			e.partials[i] = lo
			i++
		}
		x = hi
	}
	e.partials = append(e.partials[:i], x)
}

// merge folds another expansion in; the result represents the exact sum
// of both, whatever order the inputs arrived in.
func (e *expansion) merge(o expansion) {
	for _, p := range o.partials {
		e.add(p)
	}
}

// value rounds the exact total to float64, summing the non-overlapping
// partials in increasing magnitude.
func (e *expansion) value() float64 {
	v := 0.0
	for _, p := range e.partials {
		v += p
	}
	return v
}

// Agg is the mergeable aggregate of one metric over a set of trials:
// count, exact sum, exact sum of squares, and range. Shards accumulate
// disjoint trial subsets and a merge reconstitutes the pooled aggregate;
// Stat derives the campaign's reported statistics, so merged shards and a
// pooled pass produce the same numbers (see expansion for why exactly).
type Agg struct {
	count      int
	min, max   float64
	sum, sumsq expansion
}

// Add folds one trial value in.
func (a *Agg) Add(x float64) {
	if a.count == 0 || x < a.min {
		a.min = x
	}
	if a.count == 0 || x > a.max {
		a.max = x
	}
	a.count++
	a.sum.add(x)
	a.sumsq.add(x * x)
}

// Merge folds another aggregate in; the trial sets must be disjoint.
func (a *Agg) Merge(o Agg) {
	if o.count == 0 {
		return
	}
	if a.count == 0 || o.min < a.min {
		a.min = o.min
	}
	if a.count == 0 || o.max > a.max {
		a.max = o.max
	}
	a.count += o.count
	a.sum.merge(o.sum)
	a.sumsq.merge(o.sumsq)
}

// Count reports the number of trials folded in.
func (a *Agg) Count() int { return a.count }

// Stat derives the reported statistics. With fewer than two trials there
// is no dispersion estimate: CI95 is NaN (JSON null, "-" in tables),
// matching the PR 4 convention.
func (a *Agg) Stat() Stat {
	if a.count == 0 {
		return Stat{CI95: math.NaN()}
	}
	n := float64(a.count)
	sum := a.sum.value()
	s := Stat{Mean: sum / n, Min: a.min, Max: a.max, CI95: math.NaN()}
	if a.count > 1 {
		// Sample variance from the exact sums; the subtraction is the usual
		// cancellation-prone form, but both the pooled and the merged path
		// feed it identical exact sums, so they cancel identically. Clamp
		// the rounding-negative case to zero.
		ss := (a.sumsq.value() - sum*sum/n) / (n - 1)
		if ss < 0 {
			ss = 0
		}
		s.Std = math.Sqrt(ss)
		s.CI95 = 1.96 * s.Std / math.Sqrt(n)
	}
	return s
}

// aggWire is the stored form of an Agg: the exact partials round-trip
// losslessly through JSON (float64 marshals shortest-round-trip), so a
// shard's persisted aggregate merges as exactly as its in-memory one.
type aggWire struct {
	Count int       `json:"count"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Sum   []float64 `json:"sum"`   // exact-sum partials
	SumSq []float64 `json:"sumsq"` // exact sum-of-squares partials
}

func (a *Agg) wire() aggWire {
	return aggWire{Count: a.count, Min: a.min, Max: a.max,
		Sum: a.sum.partials, SumSq: a.sumsq.partials}
}

func (w aggWire) agg() Agg {
	return Agg{count: w.Count, min: w.Min, max: w.Max,
		sum: expansion{partials: w.Sum}, sumsq: expansion{partials: w.SumSq}}
}

// MarshalJSON encodes the aggregate in its exact wire form, so persisted
// aggregates round-trip losslessly (same partials, bit for bit) and two
// runs that folded the same trials in the same order compare byte-equal.
func (a Agg) MarshalJSON() ([]byte, error) { return json.Marshal(a.wire()) }

// UnmarshalJSON restores an aggregate from its wire form.
func (a *Agg) UnmarshalJSON(b []byte) error {
	var w aggWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*a = w.agg()
	return nil
}
