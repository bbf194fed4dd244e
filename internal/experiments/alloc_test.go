package experiments

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// rerunAllocs runs spec s `times` times on one pooled engine and scratch
// and returns the total allocation count. Differencing two counts cancels
// engine construction and pool warm-up, leaving the steady-state cost of
// one full spec rerun (world build, replica launch, application run,
// reclaim).
func rerunAllocs(t *testing.T, s Spec, times int) float64 {
	t.Helper()
	return testing.AllocsPerRun(2, func() {
		eng := sim.NewPooled()
		defer eng.Shutdown()
		sc := mpi.NewScratch()
		for i := 0; i < times; i++ {
			eng.Reset()
			if _, err := runSpec(eng, sc, s); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// TestPooledRerunAllocBudget pins the pooled-runner path: once the worker's
// engine and scratch are warm, each additional spec rerun must reuse the
// event nodes, goroutines, channel states and message buffers of its
// predecessors. Before engine pooling a rerun of the classic spec allocated
// well over 100k objects; the 8000 budget holds the steady state an order
// of magnitude below that so a pool regression (a Reclaim path dropped, a
// freelist bypassed) fails loudly rather than melting into GC noise. The
// intra spec loses a replica of two of its four logical ranks mid-run, so
// its update traffic runs through recovery rounds; its budget sits just above
// its steady state (1,808 allocations a rerun; 4,142 before the intra
// engine recycled its update messages, requests, channels and task
// records), so dropping any of those recycle paths fails it.
func TestPooledRerunAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	cfg := smallHPCCG(2)
	cases := []struct {
		spec   Spec
		budget float64
	}{
		{Spec{Name: "rerun", Mode: Classic, Logical: 4, App: HPCCG(cfg)}, 8000},
		{Spec{Name: "rerun-intra", Mode: Intra, Logical: 4, App: HPCCG(cfg),
			Fault: fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), 3).Schedule}, 1840},
	}
	const span = 6
	for _, tc := range cases {
		perRun := (rerunAllocs(t, tc.spec, 2+span) - rerunAllocs(t, tc.spec, 2)) / span
		t.Logf("%s: allocs per pooled spec rerun: %.0f", tc.spec.Name, perRun)
		if perRun > tc.budget {
			t.Fatalf("pooled %s rerun allocates %.0f objects, budget %.0f", tc.spec.Name, perRun, tc.budget)
		}
	}
}
