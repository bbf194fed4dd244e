package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/explore"
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
		if err := runFailures(&buf, "campaign", f, cfg, explore.Config{}, true, storeCtx{}); err != nil {
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
// series next to the replicated modes, at the full physical budget and
// under the CLI's point names; campaigns refuse modes without replicas.
func TestCampaignCCRFlagGrid(t *testing.T) {
	g := gridFromFlags("gtc", "classic,intra", "8", "2", 2, 0, "ib20g", "grid5000")
	scs, err := campaignScenarios(g, []float64{0.05, 0.5}, true)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sc := range scs {
		names = append(names, sc.Name)
		if sc.Mode == scenario.CCR && sc.Logical != 8 {
			t.Fatalf("ccr point must use the full budget: %+v", sc)
		}
	}
	want := "gtc/ccr/p8/mtbf0.05 gtc/ccr/p8/mtbf0.5 gtc/SDR-MPI/p8/d2/mtbf0.05 gtc/SDR-MPI/p8/d2/mtbf0.5 " +
		"gtc/intra/p8/d2/mtbf0.05 gtc/intra/p8/d2/mtbf0.5"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("ccr campaign points:\n got %s\nwant %s", got, want)
	}
	// Without -ft ccr the grid is unchanged.
	scs, err = campaignScenarios(g, []float64{0.05, 0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if sc.Mode == scenario.CCR {
			t.Fatal("-ft replication must not add ccr points")
		}
	}
	if len(scs) != 4 {
		t.Fatalf("replication-only grid has %d points, want 4", len(scs))
	}
	g = gridFromFlags("gtc", "native,intra", "8", "2", 2, 0, "ib20g", "grid5000")
	if _, err := campaignScenarios(g, []float64{0.05}, true); err == nil ||
		!strings.Contains(err.Error(), "no replicas to crash") {
		t.Fatalf("a native campaign mode must be refused, got %v", err)
	}
}

// TestFlagCampaignAndSpecFileEquivalent is the campaign analogue of
// TestFlagGridAndSpecFileEquivalent: a -ft ccr campaign built from flags
// and the campaign file spelling out what those flags mean produce
// byte-identical campaign JSON. For the weak-scaling HPCCG the file spells
// out the paper protocol (replicas on half the budget with Nz grown by the
// degree), and the native reference the campaign derives for it is the
// ungrown problem on the full budget.
func TestFlagCampaignAndSpecFileEquivalent(t *testing.T) {
	const (
		gtc = `"app": "gtc", "net": "ib20g", "machine": "grid5000", "config": {"Cells": 64, "PerCell": 25,
			"Zones": 8, "Steps": 2, "Dt": 0.02, "Scale": 64, "ShiftFrac": 0.05, "AuxBytes": 180,
			"IntraCharge": true, "IntraPush": true}`
		hpccg = `"app": "hpccg", "net": "ib20g", "machine": "grid5000", "config": {"Nx": 16, "Ny": 16,
			"Iters": 2, "Tasks": 8, "Scale": 512, "PlaneScale": 64, "IntraDdot": true,
			"IntraSparsemv": true, "IntraWaxpby": false,`
		native = `{"app":"hpccg","config":{"Nx":16,"Ny":16,"Nz":16,"Iters":2,"Tasks":8,"Scale":512,` +
			`"PlaneScale":64,"IntraDdot":true,"IntraSparsemv":true,"IntraWaxpby":false},` +
			`"mode":"native","logical":8,"net":"ib20g","machine":"grid5000"}`
	)
	for _, c := range []struct {
		app   string
		mtbfs []float64
		file  string
	}{
		{"gtc", []float64{0.02, 0.5}, `{"scenarios": [
			{"name": "gtc/ccr/p8/mtbf0.02", ` + gtc + `, "mode": "ccr", "logical": 8, "fault": {"mtbf_seconds": 0.02}},
			{"name": "gtc/ccr/p8/mtbf0.5", ` + gtc + `, "mode": "ccr", "logical": 8, "fault": {"mtbf_seconds": 0.5}},
			{"name": "gtc/SDR-MPI/p8/d2/mtbf0.02", ` + gtc + `, "mode": "classic", "logical": 8, "degree": 2,
				"fault": {"mtbf_seconds": 0.02}},
			{"name": "gtc/SDR-MPI/p8/d2/mtbf0.5", ` + gtc + `, "mode": "classic", "logical": 8, "degree": 2,
				"fault": {"mtbf_seconds": 0.5}},
			{"name": "gtc/intra/p8/d2/mtbf0.02", ` + gtc + `, "mode": "intra", "logical": 8, "degree": 2,
				"fault": {"mtbf_seconds": 0.02}},
			{"name": "gtc/intra/p8/d2/mtbf0.5", ` + gtc + `, "mode": "intra", "logical": 8, "degree": 2,
				"fault": {"mtbf_seconds": 0.5}}]}`},
		{"hpccg", []float64{1, 10}, `{"scenarios": [
			{"name": "hpccg/ccr/p8/mtbf1", ` + hpccg + ` "Nz": 16}, "mode": "ccr", "logical": 8,
				"fault": {"mtbf_seconds": 1}},
			{"name": "hpccg/ccr/p8/mtbf10", ` + hpccg + ` "Nz": 16}, "mode": "ccr", "logical": 8,
				"fault": {"mtbf_seconds": 10}},
			{"name": "hpccg/SDR-MPI/p8/d2/mtbf1", ` + hpccg + ` "Nz": 32}, "mode": "classic", "logical": 4,
				"degree": 2, "fault": {"mtbf_seconds": 1}},
			{"name": "hpccg/SDR-MPI/p8/d2/mtbf10", ` + hpccg + ` "Nz": 32}, "mode": "classic", "logical": 4,
				"degree": 2, "fault": {"mtbf_seconds": 10}},
			{"name": "hpccg/intra/p8/d2/mtbf1", ` + hpccg + ` "Nz": 32}, "mode": "intra", "logical": 4,
				"degree": 2, "fault": {"mtbf_seconds": 1}},
			{"name": "hpccg/intra/p8/d2/mtbf10", ` + hpccg + ` "Nz": 32}, "mode": "intra", "logical": 4,
				"degree": 2, "fault": {"mtbf_seconds": 10}}]}`},
	} {
		// Exactly what `sweep -mode campaign -ft ccr -app <app> -procs 8
		// -iters 2 -mtbf <mtbfs>` builds.
		g := gridFromFlags(c.app, "classic,intra", "8", "2", 2, 0, "ib20g", "grid5000")
		scs, err := campaignScenarios(g, c.mtbfs, true)
		if err != nil {
			t.Fatal(err)
		}
		f, err := scenario.Parse([]byte(c.file))
		if err != nil {
			t.Fatal(err)
		}
		run := func(f *scenario.File) string {
			var buf bytes.Buffer
			cfg := campaign.Config{Trials: 4, Seed: 1, Workers: 2}
			if err := runFailures(&buf, "campaign", f, cfg, explore.Config{}, true, storeCtx{}); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		fromFlags, fromFile := run(&scenario.File{Scenarios: scs}), run(f)
		if fromFlags != fromFile {
			t.Fatalf("%s: flag campaign and campaign file diverge:\n%s\nvs\n%s", c.app, fromFlags, fromFile)
		}
		if c.app != "hpccg" {
			continue
		}
		for _, sc := range f.Scenarios[2:] {
			cs, err := campaign.FromScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(scenario.MustRaw(cs.Native)); got != native {
				t.Fatalf("%s: native reference\n got %s\nwant %s", sc.Name, got, native)
			}
		}
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
