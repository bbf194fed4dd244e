package fault_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// TestDrawAllocBudget pins the failure draws at zero generator
// allocations: each reseeds a recycled generator instead of allocating a
// 4.9 KB source and its rand.Rand. A clamped draw, as every replicated
// campaign trial makes, allocates its schedule and crash list only; a ccr
// trial's stream, eight node slots pulled to the end and released as
// campaign's ccrTrial does, allocates its slot list only. Without
// recycling the draw would make four allocations and the stream
// seventeen.
func TestDrawAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	mtbf, horizon := sim.Seconds(0.1), sim.Seconds(0.2)
	seed := int64(0)
	draw := testing.AllocsPerRun(200, func() {
		fault.ExponentialDraw(8, 2, mtbf, horizon, seed)
		seed++
	})
	stream := testing.AllocsPerRun(200, func() {
		s := fault.NewStream(8, 1, mtbf, 10*horizon, seed)
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
		s.Release()
		seed++
	})
	t.Logf("allocations: clamped draw %.0f, ccr stream %.0f", draw, stream)
	if draw > 2 || stream > 1 {
		t.Fatalf("a clamped draw allocates %.0f objects (budget 2), a ccr stream %.0f (budget 1)", draw, stream)
	}
}
