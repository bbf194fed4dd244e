package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// TestFlagGridAndSpecFileEquivalent is the sweep-equivalence property: the
// grid built from CLI flags and the equivalent checked-in scenario file
// (scenarios/smoke.json) produce byte-identical JSON results.
func TestFlagGridAndSpecFileEquivalent(t *testing.T) {
	// The flag path: exactly what `sweep -app hpccg -procs 8 -iters 3
	// -json` builds.
	g := gridFromFlags("hpccg", "native,classic,intra", "8", "2", 3, 0, "ib20g", "grid5000")
	var fromFlags bytes.Buffer
	if err := runGrid(&fromFlags, g, 1, true, storeCtx{}); err != nil {
		t.Fatal(err)
	}

	// The file path: `sweep -spec scenarios/smoke.json -json`.
	f, err := scenario.Load("../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var fromFile bytes.Buffer
	if err := runSpecFile(&fromFile, f, 1, true, storeCtx{}); err != nil {
		t.Fatal(err)
	}

	flagsJSON := zeroElapsed(t, fromFlags.String())
	fileJSON := zeroElapsed(t, fromFile.String())
	if flagsJSON != fileJSON {
		t.Fatalf("flag grid and spec file diverge:\n%s\nvs\n%s", flagsJSON, fileJSON)
	}
}

// zeroElapsed blanks the elapsed_ms lines — the only legitimately
// run-dependent field — leaving every simulated value byte-comparable.
func zeroElapsed(t *testing.T, s string) string {
	t.Helper()
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.Contains(l, `"elapsed_ms"`) {
			lines[i] = `      "elapsed_ms": 0,`
		}
	}
	return strings.Join(lines, "\n")
}

// TestSpecFileWorkerIndependence reruns the smoke file fully parallel: the
// JSON must match the serial run byte for byte (modulo elapsed_ms), the
// property the CI job enforces via the real binary.
func TestSpecFileWorkerIndependence(t *testing.T) {
	f, err := scenario.Load("../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var serial, parallel bytes.Buffer
	if err := runSpecFile(&serial, f, 1, true, storeCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := runSpecFile(&parallel, f, 8, true, storeCtx{}); err != nil {
		t.Fatal(err)
	}
	if zeroElapsed(t, serial.String()) != zeroElapsed(t, parallel.String()) {
		t.Fatal("worker count changed the spec-file output")
	}
}

// TestCampaignCCRSpecWorkerIndependence runs the checked-in Fig. 1-style
// comparison file serially and fully parallel: the three-way JSON
// aggregate (measured cCR, measured replication, analytic models,
// crossovers) must be byte-identical — the acceptance property the CI
// smoke enforces via the real binary.
func TestCampaignCCRSpecWorkerIndependence(t *testing.T) {
	f, err := scenario.Load("../../scenarios/campaign-ccr-vs-replication.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		cfg := campaign.Config{Trials: 3, Seed: 9, Workers: workers}
		var buf bytes.Buffer
		if err := runCampaignSpec(&buf, f, cfg, true, storeCtx{}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	if parallel := run(8); parallel != serial {
		t.Fatal("worker count changed the ccr campaign output")
	}
	for _, want := range []string{`"mode": "cCR"`, `"mode": "SDR-MPI"`, `"mode": "intra"`,
		`"crossovers"`, `"ckpt_tau_seconds"`} {
		if !strings.Contains(serial, want) {
			t.Fatalf("three-way aggregate missing %s", want)
		}
	}
}

// TestCampaignCCRFlagGrid: -ft ccr adds a measured checkpoint/restart
// series next to the replicated modes, at the full physical budget.
func TestCampaignCCRFlagGrid(t *testing.T) {
	scs, err := campaignGrid("gtc", "classic,intra", "8", "2", 2, 0,
		"ib20g", "grid5000", "0.05,0.5", true)
	if err != nil {
		t.Fatal(err)
	}
	var ccr, repl int
	for _, sc := range scs {
		if sc.Point.Mode == scenario.CCR {
			ccr++
			if sc.Point.Logical != 8 {
				t.Fatalf("ccr point must use the full budget: %+v", sc.Point)
			}
		} else {
			repl++
		}
	}
	if ccr != 2 || repl != 4 {
		t.Fatalf("grid has %d ccr + %d replicated points, want 2 + 4", ccr, repl)
	}
	// Without -ft ccr the grid is unchanged.
	scs, err = campaignGrid("gtc", "classic,intra", "8", "2", 2, 0,
		"ib20g", "grid5000", "0.05,0.5", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if sc.Point.Mode == scenario.CCR {
			t.Fatal("-ft replication must not add ccr points")
		}
	}
	if len(scs) != 4 {
		t.Fatalf("replication-only grid has %d points, want 4", len(scs))
	}
}

// TestValidateBindsApps: -validate binds every expanded point to its app,
// so a GTC grid with fewer than two cells per zone fails validation
// instead of panicking (tasks 64) or running empty (tasks 100).
func TestValidateBindsApps(t *testing.T) {
	for _, c := range []struct {
		tasks int
		ok    bool
	}{{64, false}, {100, false}, {32, true}} {
		f, err := scenario.Parse([]byte(fmt.Sprintf(`{"name": "g", "grid": {"apps": ["gtc"],
			"modes": ["native"], "procs": [2], "iters": 1, "tasks": %d}}`, c.tasks)))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := validateSpec(f)
		if (err == nil) != c.ok {
			t.Errorf("tasks %d: validate = %q, %v; want ok %v", c.tasks, msg, err, c.ok)
		}
	}
}
