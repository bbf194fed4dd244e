package experiments

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// rerunAllocs runs spec s `times` times on one worker and returns the
// total allocation count. Differencing two counts cancels engine
// construction and pool warm-up, leaving the steady-state cost of one full
// spec rerun (world build, replica launch, application run, reclaim).
func rerunAllocs(t *testing.T, s Spec, times int) float64 {
	t.Helper()
	return testing.AllocsPerRun(2, func() {
		var w Worker
		defer w.close()
		for i := 0; i < times; i++ {
			if _, err := w.run(s, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// TestPooledRerunAllocBudget pins the pooled-runner path: once the worker's
// engine and scratch are warm, each additional spec rerun must reuse the
// event nodes, goroutines, channel states and message buffers of its
// predecessors, and rebuild its rank states, replication procs (send logs
// and sequence maps included) and runners (task records included) from
// the worker's scratch. Every budget sits just above its spec's steady
// state, so a pool regression (a Reclaim path dropped, a freelist
// bypassed, a recycle path skipped) fails loudly rather than melting into
// GC noise:
//   - the fault-free classic spec allocates 1,109 objects a rerun, nearly
//     all of them the application's own (well over 100k before engine
//     pooling, 1,596 before the scratch recycled procs and runners);
//   - the intra spec loses a replica of two of its four logical ranks
//     mid-run, so its update traffic runs through recovery rounds: 1,126
//     a rerun (1,800 before);
//   - the classic spec under the same crashes, replaying its recorded
//     trace as crashed classic campaign trials and jobstream jobs do: 45
//     a rerun, send logs and failover included (278 before);
//   - the intra spec replaying the same recording, as crashed intra
//     campaign trials do: the section protocol runs for real, recovery
//     rounds included, without the application: 58 a rerun (736 before).
func TestPooledRerunAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	cfg := smallHPCCG(2)
	crashes := fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), 3).Schedule
	intra := Spec{Name: "rerun-intra", Mode: Intra, Logical: 4, App: HPCCG(cfg), Fault: crashes}
	ts, err := RecordTraces(intra)
	if err != nil {
		t.Fatal(err)
	}
	replayed := Spec{Name: "rerun-replay", Mode: Classic, Logical: 4, App: HPCCG(cfg), Fault: crashes, Replay: ts}
	intraReplayed := intra
	intraReplayed.Name, intraReplayed.Replay = "rerun-intra-replay", ts
	cases := []struct {
		spec   Spec
		budget float64
	}{
		{Spec{Name: "rerun", Mode: Classic, Logical: 4, App: HPCCG(cfg)}, 1150},
		{intra, 1170},
		{replayed, 55},
		{intraReplayed, 70},
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
