package campaign

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// BenchmarkCampaignGTC runs a full Monte Carlo campaign per op (GTC,
// classic replication, 8 logical ranks, per-node MTBF 0.05 s) so the trial
// loop can be profiled in isolation with the testing harness:
//
//	BENCH_TRIALS=1000 go test ./internal/campaign/ -run xxx -bench CampaignGTC -benchtime 3x
//
// BENCH_TRIALS scales the trials per op (default 100); larger counts
// amortize the two fault-free reference runs and the trace recording.
func BenchmarkCampaignGTC(b *testing.B) {
	trials := 100
	if v := os.Getenv("BENCH_TRIALS"); v != "" {
		trials, _ = strconv.Atoi(v)
	}
	ent, err := scenario.AppByName("gtc")
	if err != nil {
		b.Fatal(err)
	}
	sc := Scenario{
		MTBF: sim.Seconds(0.05),
		Point: scenario.Scenario{
			Name: "bench/gtc/classic/p8",
			App:  "gtc", Config: scenario.MustRaw(ent.Paper(2, 0)),
			Mode: scenario.Classic, Logical: 8, Degree: 2,
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Trials: trials, Seed: 1, Workers: 1}, []Scenario{sc}); err != nil {
			b.Fatal(err)
		}
	}
}
