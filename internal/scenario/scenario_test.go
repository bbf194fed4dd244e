package scenario_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/simnet"

	// Register the remaining apps so the registry tests see the full set.
	_ "repro/internal/apps/amg"
	_ "repro/internal/apps/gtc"
	_ "repro/internal/apps/minighost"
)

func TestModeTextRoundTrip(t *testing.T) {
	for _, m := range scenario.Modes {
		b, err := m.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var back scenario.Mode
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if back != m {
			t.Fatalf("round trip %v -> %s -> %v", m, b, back)
		}
	}
	if _, err := scenario.Mode(7).MarshalText(); err == nil {
		t.Fatal("unknown mode must not encode")
	}
	if _, err := scenario.ParseMode("openmpi"); err == nil {
		t.Fatal("unknown name must not parse")
	}
	if got := scenario.Mode(7).String(); got != "Mode(7)" {
		t.Fatalf("unknown mode string %q", got)
	}
	// Mode marshals under its canonical name inside JSON documents.
	b, err := json.Marshal(scenario.Classic)
	if err != nil || string(b) != `"classic"` {
		t.Fatalf("JSON form %s, %v", b, err)
	}
}

func TestAppRegistry(t *testing.T) {
	names := scenario.AppNames()
	for _, want := range []string{"amg", "gtc", "hpccg", "minighost"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("app %q not registered (have %v)", want, names)
		}
	}
	_, err := scenario.AppByName("nbody")
	if err == nil || !strings.Contains(err.Error(), "hpccg") {
		t.Fatalf("unknown app error must name the registered apps, got %v", err)
	}
	for _, e := range scenario.Apps() {
		if e.Description == "" {
			t.Fatalf("app %q has no description", e.Name)
		}
	}
}

func TestRegisterAppDuplicatePanics(t *testing.T) {
	entry := scenario.AppEntry{
		Name: "scenario-test-dup",
		New:  func() any { return &struct{}{} },
		Run:  func(any) (scenario.AppRun, error) { return nil, nil },
	}
	scenario.RegisterApp(entry)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate app registration must panic")
		}
	}()
	scenario.RegisterApp(entry)
}

func smallConfig() hpccg.Config {
	return hpccg.Config{
		Nx: 8, Ny: 8, Nz: 8, Iters: 4, Tasks: 8,
		Scale: 64, PlaneScale: 16,
	}
}

func smallScenario() scenario.Scenario {
	return scenario.Scenario{
		Name: "test/point", App: "hpccg", Config: scenario.MustRaw(smallConfig()),
		Mode: scenario.Intra, Logical: 4, Degree: 2,
		Net: "eth10g", Machine: "skylake",
		Intra: &scenario.IntraOptions{Inout: "atomic"},
		Fault: &scenario.FaultSpec{Crashes: []scenario.Crash{{Logical: 1, Lane: 0, AtSeconds: 0.5}}},
	}
}

func fingerprint(t *testing.T, sc scenario.Scenario) string {
	t.Helper()
	fp, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := smallScenario()
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Scenario
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", b, b2)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, sc) != fingerprint(t, back) {
		t.Fatal("round trip changed the fingerprint")
	}
}

func TestFingerprintStability(t *testing.T) {
	base := fingerprint(t, smallScenario())
	if base != fingerprint(t, smallScenario()) {
		t.Fatal("identical scenarios must share a fingerprint")
	}

	// Name is a label, not a semantic field.
	named := smallScenario()
	named.Name = "other/name"
	if fingerprint(t, named) != base {
		t.Fatal("a renamed scenario is the same simulation")
	}

	// Degree 0 canonicalizes to the default.
	defaulted := smallScenario()
	defaulted.Degree = 0
	if fingerprint(t, defaulted) != base {
		t.Fatal("degree 0 must fingerprint as the default degree 2")
	}

	// Naming the default platform, or spelling its models inline, keys
	// like omitting it: the fingerprint holds the resolved models.
	omitted := smallScenario()
	omitted.Net, omitted.Machine = "", ""
	if fingerprint(t, omitted) == base {
		t.Fatal("the default platform must key unlike eth10g/skylake")
	}
	namedPlatform := omitted
	namedPlatform.Net, namedPlatform.Machine = "ib20g", "grid5000"
	inline := omitted
	net, machine := simnet.InfiniBand20G, perf.Grid5000
	inline.NetConfig, inline.MachineConfig = &net, &machine
	for how, sc := range map[string]scenario.Scenario{"named": namedPlatform, "inline": inline} {
		if fingerprint(t, sc) != fingerprint(t, omitted) {
			t.Fatalf("the default platform spelled %s must key like the omitted default", how)
		}
	}

	// Explicitly spelling the default intra options keys like omitting
	// them: the fingerprint normalizes to resolved engine options.
	plain := scenario.Scenario{App: "hpccg", Mode: scenario.Intra, Logical: 2}
	copyDefault := plain
	copyDefault.Intra = &scenario.IntraOptions{Inout: "copy"}
	if fingerprint(t, plain) != fingerprint(t, copyDefault) {
		t.Fatal(`explicit inout "copy" is the omitted default and must key identically`)
	}

	// An omitted config decodes to the app default: it keys like the
	// spelled-out default.
	implicit := scenario.Scenario{App: "hpccg", Mode: scenario.Native, Logical: 2}
	explicit := scenario.Scenario{App: "hpccg", Config: scenario.MustRaw(hpccg.DefaultConfig()),
		Mode: scenario.Native, Logical: 2}
	if fingerprint(t, implicit) != fingerprint(t, explicit) {
		t.Fatal("implicit and explicit default configs must key identically")
	}

	// Every semantic change must change the key.
	mutations := map[string]func(*scenario.Scenario){
		"mode":    func(s *scenario.Scenario) { s.Mode = scenario.Classic },
		"logical": func(s *scenario.Scenario) { s.Logical = 8 },
		"degree":  func(s *scenario.Scenario) { s.Degree = 3 },
		"config": func(s *scenario.Scenario) {
			cfg := smallConfig()
			cfg.Iters = 5
			s.Config = scenario.MustRaw(cfg)
		},
		"net":     func(s *scenario.Scenario) { s.Net = "ib20g" },
		"machine": func(s *scenario.Scenario) { s.Machine = "grid5000" },
		"intra":   func(s *scenario.Scenario) { s.Intra = &scenario.IntraOptions{Inout: "copy"} },
		"fault": func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{Crashes: []scenario.Crash{{Logical: 1, Lane: 0, AtSeconds: 0.7}}}
		},
	}
	for field, mutate := range mutations {
		sc := smallScenario()
		mutate(&sc)
		if fingerprint(t, sc) == base {
			t.Fatalf("changing %s did not change the fingerprint", field)
		}
	}
}

// TestFingerprintPinned fixes one scenario's fingerprint byte for byte.
// Campaign trial seeds hash it (campaign.PointSeed), so a change to the
// encoding, such as dropping the retired "cost_scale":0, would reseed
// every campaign.
func TestFingerprintPinned(t *testing.T) {
	const want = `{"app":"hpccg","config":{"Nx":8,"Ny":8,"Nz":8,"Iters":4,"Tasks":8,"Scale":64,` +
		`"PlaneScale":16,"IntraDdot":true,"IntraSparsemv":true,"IntraWaxpby":false},` +
		`"mode":"intra","logical":4,"degree":2,` +
		`"net":{"Latency":15000,"Bandwidth":1100000000,"LocalLatency":500,"LocalBandwidth":6000000000,"CoresPerNode":4},` +
		`"machine":{"MemBWPerCore":5000000000,"FlopsPerCore":12000000000},` +
		`"inout":1,"cost_scale":0,"ckpt":null,"fault":"1:0@500000000;"}`
	if got := fingerprint(t, smallScenario()); got != want {
		t.Fatalf("fingerprint moved:\n got %s\nwant %s", got, want)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]struct {
		mutate func(*scenario.Scenario)
		want   string
	}{
		"unknown app":     {func(s *scenario.Scenario) { s.App = "nbody" }, "unknown app"},
		"config typo":     {func(s *scenario.Scenario) { s.Config = []byte(`{"Nq": 3}`) }, "unknown field"},
		"zero logical":    {func(s *scenario.Scenario) { s.Logical = 0 }, "logical rank"},
		"degree one":      {func(s *scenario.Scenario) { s.Degree = 1 }, "degree"},
		"unknown net":     {func(s *scenario.Scenario) { s.Net = "myrinet" }, "unknown net"},
		"unknown machine": {func(s *scenario.Scenario) { s.Machine = "epyc" }, "unknown machine"},
		"zero-bandwidth custom net": {func(s *scenario.Scenario) {
			s.Net, s.NetConfig = "", &simnet.Config{LocalBandwidth: 1e9}
		}, "bandwidth"},
		"net name plus custom net": {func(s *scenario.Scenario) {
			s.NetConfig = &simnet.Config{Bandwidth: 1e9, LocalBandwidth: 1e9}
		}, "both"},
		"zero-flops custom machine": {func(s *scenario.Scenario) {
			s.Machine, s.MachineConfig = "", &perf.Machine{MemBWPerCore: 1e9}
		}, "flop"},
		"bad inout": {func(s *scenario.Scenario) { s.Intra = &scenario.IntraOptions{Inout: "undo"} }, "inout"},
		"fault on native": {func(s *scenario.Scenario) {
			s.Mode, s.Degree = scenario.Native, 0
		}, "replicated"},
		"mtbf plus crashes": {func(s *scenario.Scenario) {
			s.Fault.MTBFSeconds = 1
		}, "both"},
		"horizon without mtbf": {func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{HorizonSeconds: 5}
		}, "horizon"},
		"crash lane out of range": {func(s *scenario.Scenario) {
			s.Fault.Crashes[0].Lane = 2
		}, "lane"},
		"crash rank out of range": {func(s *scenario.Scenario) {
			s.Fault.Crashes[0].Logical = 9
		}, "rank"},
		// Every seconds value converted to virtual time must fit it.
		"mtbf past virtual time": {func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{MTBFSeconds: 1e10}
		}, "mtbf_seconds 1e+10 s"},
		"infinite mtbf": {func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{MTBFSeconds: math.Inf(1)}
		}, "mtbf_seconds +Inf s"},
		"negative mtbf": {func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{MTBFSeconds: -1}
		}, "mtbf_seconds -1 s"},
		"horizon past virtual time": {func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{MTBFSeconds: 1, HorizonSeconds: 1e10}
		}, "horizon_seconds 1e+10 s"},
		"NaN horizon": {func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{MTBFSeconds: 1, HorizonSeconds: math.NaN()}
		}, "horizon_seconds NaN s"},
		"negative horizon": {func(s *scenario.Scenario) {
			s.Fault = &scenario.FaultSpec{MTBFSeconds: 1, HorizonSeconds: -1}
		}, "horizon_seconds -1 s"},
		"crash past virtual time": {func(s *scenario.Scenario) {
			s.Fault.Crashes[0].AtSeconds = 1e10
		}, "at_seconds 1e+10 s"},
	}
	for name, tc := range cases {
		sc := smallScenario()
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, err)
		}
	}
	if err := smallScenario().Validate(); err != nil {
		t.Fatalf("the base scenario must validate: %v", err)
	}
}

func TestGridExpandWeakScaling(t *testing.T) {
	g := scenario.Grid{Apps: []string{"hpccg"}, Procs: []int{8}}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("expected 3 scenarios, got %d", len(scs))
	}
	native, classic, intra := scs[0], scs[1], scs[2]
	if native.Mode != scenario.Native || native.Logical != 8 {
		t.Fatalf("native point wrong: %+v", native)
	}
	if classic.Logical != 4 || intra.Logical != 4 {
		t.Fatalf("weak scaling must halve logical ranks at degree 2: %d/%d", classic.Logical, intra.Logical)
	}
	if native.Name != "hpccg/Open MPI/p8" || intra.Name != "hpccg/intra/p8/d2" {
		t.Fatalf("grid names wrong: %q, %q", native.Name, intra.Name)
	}
	// Replicated per-rank problems grow with the degree.
	ncfg, err := native.AppConfig()
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := intra.AppConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rcfg.(*hpccg.Config).Nz, 2*ncfg.(*hpccg.Config).Nz; got != want {
		t.Fatalf("replicated Nz = %d, want %d", got, want)
	}

	if _, err := (scenario.Grid{Apps: []string{"hpccg"}, Procs: []int{9},
		Modes: []scenario.Mode{scenario.Intra}}).Expand(); err == nil ||
		!strings.Contains(err.Error(), "divisible") {
		t.Fatalf("odd budget at degree 2 must error, got %v", err)
	}
}

func TestGridExpandFixedSizeAndDedup(t *testing.T) {
	g := scenario.Grid{Apps: []string{"gtc"}, Procs: []int{6}, Degrees: []int{2, 3}}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// native once (degree axis collapses), classic and intra per degree.
	natives := 0
	for _, sc := range scs {
		if sc.Mode == scenario.Native {
			natives++
		}
		if sc.Logical != 6 {
			t.Fatalf("fixed-size app must pin logical ranks: %+v", sc)
		}
	}
	if natives != 1 || len(scs) != 5 {
		t.Fatalf("expected 1 native + 4 replicated, got %d natives of %d", natives, len(scs))
	}
}

// TestGridCrossProductBounded: a grid's cross product is capped before
// anything is built, so a small file cannot declare a huge expansion (an
// axis pasted many times over), while a grid of 10,000 points expands.
func TestGridCrossProductBounded(t *testing.T) {
	procs := make([]int, 1000)
	for i := range procs {
		procs[i] = 2 * (i + 1)
	}
	g := scenario.Grid{Apps: []string{"gtc"}, Procs: procs, Degrees: []int{2, 2, 2, 2, 2},
		Modes: []scenario.Mode{scenario.Classic, scenario.Intra}}
	if scs, err := g.Expand(); err != nil || len(scs) != 10000 {
		t.Fatalf("10,000-point grid: %d points, %v", len(scs), err)
	}
	g.Degrees = append(g.Degrees, 2)
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "more than 10000 points") {
		t.Fatalf("12,000-point grid must be rejected, got %v", err)
	}
	g.Apps = []string{"gtc", "gtc", "gtc", "gtc", "gtc", "gtc", "gtc", "gtc"}
	g.Procs = append(g.Procs, g.Procs...)
	g.Degrees = append(g.Degrees, g.Degrees...)
	if _, err := g.Expand(); err == nil {
		t.Fatal("a 384,000-point grid must be rejected")
	}
}

func TestGridExpandPlatformAxes(t *testing.T) {
	g := scenario.Grid{Apps: []string{"gtc"}, Procs: []int{4},
		Modes: []scenario.Mode{scenario.Intra}, Nets: []string{"ib20g", "eth10g"}}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("expected one point per net, got %d", len(scs))
	}
	if !strings.Contains(scs[0].Name, "ib20g") || !strings.Contains(scs[1].Name, "eth10g") {
		t.Fatalf("multi-net grids must name the net: %q, %q", scs[0].Name, scs[1].Name)
	}
	if _, err := (scenario.Grid{Apps: []string{"gtc"}, Procs: []int{4},
		Nets: []string{"myrinet"}}).Expand(); err == nil {
		t.Fatal("unknown net in a grid must error")
	}
}

func TestFileParse(t *testing.T) {
	if _, err := scenario.Parse([]byte(`{"scenarios": [], "grids": {}}`)); err == nil {
		t.Fatal("unknown top-level field must error")
	}
	if _, err := scenario.Parse([]byte(`{"name": "empty"}`)); err == nil {
		t.Fatal("a file without grid or scenarios must error")
	}
	f, err := scenario.Parse([]byte(`{
		"name": "demo",
		"grid": {"apps": ["gtc"], "procs": [4], "modes": ["native", "intra"]},
		"scenarios": [{"app": "hpccg", "mode": "classic", "logical": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	scs, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("grid (2) + explicit (1) = %d", len(scs))
	}
	if scs[2].App != "hpccg" || scs[2].Mode != scenario.Classic {
		t.Fatalf("explicit scenario mangled: %+v", scs[2])
	}
}

func TestFaultSpecSchedule(t *testing.T) {
	var nilSpec *scenario.FaultSpec
	if nilSpec.Schedule() != nil {
		t.Fatal("nil fault spec must give a nil schedule")
	}
	f := &scenario.FaultSpec{Crashes: []scenario.Crash{{Logical: 1, Lane: 1, AtSeconds: 0.25}}}
	s := f.Schedule()
	if len(s.Crashes) != 1 || s.Crashes[0].Time.Seconds() != 0.25 {
		t.Fatalf("schedule conversion wrong: %+v", s)
	}
}

// TestCCRMode covers the checkpoint/restart scenario axis: the canonical
// name round-trips, ckpt options validate and fingerprint, and the fault
// model accepts an MTBF (the campaign axis) but no explicit crashes.
func TestCCRMode(t *testing.T) {
	if !scenario.CCR.Known() || scenario.CCR.Replicated() {
		t.Fatal("ccr must be known and unreplicated")
	}
	m, err := scenario.ParseMode("ccr")
	if err != nil || m != scenario.CCR {
		t.Fatalf("ParseMode(ccr) = %v, %v", m, err)
	}
	if scenario.CCR.String() != "cCR" || scenario.CCR.Name() != "ccr" {
		t.Fatalf("ccr names: %q / %q", scenario.CCR.String(), scenario.CCR.Name())
	}

	sc := scenario.Scenario{
		App: "gtc", Mode: scenario.CCR, Logical: 4,
		Ckpt:  &scenario.CkptOptions{TauSeconds: 0.1, DeltaSeconds: 0.01},
		Fault: &scenario.FaultSpec{MTBFSeconds: 0.5},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid ccr scenario rejected: %v", err)
	}
	if sc.EffectiveDegree() != 1 || sc.PhysProcs() != 4 {
		t.Fatalf("ccr sizing: degree %d, phys %d", sc.EffectiveDegree(), sc.PhysProcs())
	}

	// JSON round trip keeps mode and ckpt options.
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"mode":"ccr"`) || !strings.Contains(string(b), `"tau_seconds":0.1`) {
		t.Fatalf("ccr JSON missing fields: %s", b)
	}
	var back scenario.Scenario
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Mode != scenario.CCR || back.Ckpt == nil || back.Ckpt.TauSeconds != 0.1 {
		t.Fatalf("round trip mangled ccr scenario: %+v", back)
	}

	// Ckpt options change the fingerprint; nil and the empty object do not
	// differ from each other.
	fp := func(s scenario.Scenario) string {
		t.Helper()
		k, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := sc
	base.Fault = nil
	other := base
	other.Ckpt = &scenario.CkptOptions{TauSeconds: 0.2, DeltaSeconds: 0.01}
	if fp(base) == fp(other) {
		t.Fatal("different ckpt intervals must fingerprint differently")
	}
	noCkpt, emptyCkpt := base, base
	noCkpt.Ckpt = nil
	emptyCkpt.Ckpt = &scenario.CkptOptions{}
	if fp(noCkpt) != fp(emptyCkpt) {
		t.Fatal("nil and empty ckpt options must key identically")
	}

	// Invalid combinations.
	bad := sc
	bad.Mode = scenario.Intra
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ckpt") {
		t.Fatalf("ckpt options outside ccr mode: %v", err)
	}
	bad = sc
	bad.Ckpt = &scenario.CkptOptions{DeltaSeconds: -1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative ckpt parameter: %v", err)
	}
	bad = sc
	bad.Degree = 2
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unreplicated") {
		t.Fatalf("ccr with replicas: %v", err)
	}
	bad = sc
	bad.Fault = &scenario.FaultSpec{Crashes: []scenario.Crash{{Logical: 0, Lane: 0, AtSeconds: 0.1}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "crash schedule") {
		t.Fatalf("ccr with explicit crashes: %v", err)
	}
	// Native still rejects MTBF models.
	bad = scenario.Scenario{App: "gtc", Mode: scenario.Native, Logical: 4,
		Fault: &scenario.FaultSpec{MTBFSeconds: 0.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("native with an MTBF fault model must stay invalid")
	}
}

// TestGridCCRMode: ccr points expand once per process count (no degree
// axis), carry the grid's ckpt options, and a ckpt block without a ccr
// mode is an error.
func TestGridCCRMode(t *testing.T) {
	g := scenario.Grid{
		Apps:    []string{"gtc"},
		Modes:   []scenario.Mode{scenario.CCR, scenario.Intra},
		Procs:   []int{4},
		Degrees: []int{2, 3},
		Ckpt:    &scenario.CkptOptions{DeltaSeconds: 0.02},
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var ccr, intra int
	for _, sc := range scs {
		switch sc.Mode {
		case scenario.CCR:
			ccr++
			if sc.Ckpt == nil || sc.Ckpt.DeltaSeconds != 0.02 {
				t.Fatalf("ccr point lost the grid ckpt options: %+v", sc)
			}
			if sc.Degree != 0 {
				t.Fatalf("ccr point carries degree %d", sc.Degree)
			}
		case scenario.Intra:
			intra++
			if sc.Ckpt != nil {
				t.Fatalf("replicated point gained ckpt options: %+v", sc)
			}
		}
	}
	if ccr != 1 || intra != 2 {
		t.Fatalf("grid expanded to %d ccr + %d intra points, want 1 + 2", ccr, intra)
	}

	g.Modes = []scenario.Mode{scenario.Intra}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "ccr") {
		t.Fatalf("ckpt options without a ccr mode: %v", err)
	}
}
