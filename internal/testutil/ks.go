package testutil

import (
	"math"
	"sort"
)

// KSUniform returns the Kolmogorov–Smirnov statistic of the samples u
// against the uniform distribution on [0, 1], sorting u in place, and the
// statistic's critical value at the 0.1% level for len(u) samples
// (Stephens' finite-sample form of the asymptotic c = 1.9495). Transform
// samples of another continuous distribution through its CDF first.
func KSUniform(u []float64) (d, crit float64) {
	sort.Float64s(u)
	n := float64(len(u))
	for i, x := range u {
		d = max(d, float64(i+1)/n-x, x-float64(i)/n)
	}
	sq := math.Sqrt(n)
	return d, 1.9495 / (sq + 0.12 + 0.11/sq)
}
