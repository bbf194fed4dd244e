package scenario_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"

	_ "repro/internal/apps/gtc"
	_ "repro/internal/apps/hpccg"
)

func workloadFile(t *testing.T) *scenario.File {
	t.Helper()
	f, err := scenario.Parse([]byte(`{
		"name": "wl",
		"workload": {
			"nodes": 16,
			"jobs": 20,
			"rates_jobs_per_sec": [2, 5],
			"mtbf_seconds": 10,
			"seed": 7,
			"mix": [
				{"name": "a", "app": "hpccg", "config": {"Iters": 3}, "logical": 4, "weight": 2},
				{"app": "gtc", "config": {"Steps": 2}, "logical": 2}
			],
			"schedulers": ["fcfs", "easy"],
			"policies": ["native", "replicate"]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWorkloadFileRoundTrip(t *testing.T) {
	f := workloadFile(t)
	w := f.Workload
	if w == nil {
		t.Fatal("workload section lost in parse")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Nodes != 16 || w.Jobs != 20 || len(w.Rates) != 2 || len(w.Mix) != 2 {
		t.Fatalf("fields lost: %+v", w)
	}
	if got := w.Mix[1].Label(); got != "gtc" {
		t.Fatalf("unnamed class should label by app, got %q", got)
	}
	if got := w.Mix[1].EffWeight(); got != 1 {
		t.Fatalf("zero weight should default to 1, got %g", got)
	}

	// Marshal and reparse: the workload survives a JSON round trip intact.
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenario.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := f.Workload.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := back.Workload.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint changed across round trip:\n%s\n%s", fp1, fp2)
	}
}

func TestWorkloadFileShape(t *testing.T) {
	if _, err := scenario.Parse([]byte(`{"name": "x"}`)); err == nil {
		t.Fatal("file with no grid, scenarios or workload should fail")
	}
	mixed := `{"name": "x", "grid": {"apps": ["hpccg"]}, "workload": {"nodes": 1, "jobs": 1,
		"rates_jobs_per_sec": [1], "mix": [{"app": "hpccg", "logical": 1}],
		"schedulers": ["fcfs"], "policies": ["native"]}}`
	if _, err := scenario.Parse([]byte(mixed)); err == nil || !strings.Contains(err.Error(), "mixes") {
		t.Fatalf("workload+grid file should fail with a mix error, got %v", err)
	}
}

func TestWorkloadValidate(t *testing.T) {
	base := func() scenario.Workload { return *workloadFile(t).Workload }
	cases := []struct {
		name string
		mut  func(*scenario.Workload)
		want string
	}{
		{"no nodes", func(w *scenario.Workload) { w.Nodes = 0 }, "node"},
		{"no jobs", func(w *scenario.Workload) { w.Jobs = 0 }, "job"},
		{"empty rates", func(w *scenario.Workload) { w.Rates = nil }, "rates"},
		{"bad rate", func(w *scenario.Workload) { w.Rates = []float64{2, -1} }, "rate"},
		{"negative mtbf", func(w *scenario.Workload) { w.MTBFSeconds = -1 }, "mtbf"},
		{"mtbf past virtual time", func(w *scenario.Workload) { w.MTBFSeconds = 1e10 }, "mtbf_seconds 1e+10 s"},
		{"NaN mtbf", func(w *scenario.Workload) { w.MTBFSeconds = math.NaN() }, "mtbf_seconds NaN s"},
		{"delta frac", func(w *scenario.Workload) { w.CkptDeltaFrac = 1 }, "ckpt_delta_frac"},
		{"negative bound", func(w *scenario.Workload) { w.BoundSeconds = -1 }, "bound"},
		{"empty mix", func(w *scenario.Workload) { w.Mix = nil }, "mix"},
		{"unknown app", func(w *scenario.Workload) { w.Mix[0].App = "nope" }, "nope"},
		{"bad config", func(w *scenario.Workload) { w.Mix[0].Config = json.RawMessage(`{"Bogus": 1}`) }, "config"},
		{"zero logical", func(w *scenario.Workload) { w.Mix[0].Logical = 0 }, "logical"},
		{"class too wide", func(w *scenario.Workload) { w.Mix[0].Logical = 99 }, "nodes"},
		{"negative weight", func(w *scenario.Workload) { w.Mix[0].Weight = -1 }, "weight"},
		{"bad net", func(w *scenario.Workload) { w.Net = "nope" }, "net"},
		{"no schedulers", func(w *scenario.Workload) { w.Schedulers = nil }, "schedulers"},
		{"dup scheduler", func(w *scenario.Workload) { w.Schedulers = []string{"fcfs", "fcfs"} }, "duplicate"},
		{"blank policy", func(w *scenario.Workload) { w.Policies = []string{"native", ""} }, "blank"},
		{"dup policy", func(w *scenario.Workload) { w.Policies = []string{"native", "native"} }, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := base()
			tc.mut(&w)
			err := w.Validate()
			if err == nil {
				t.Fatal("validation should fail")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q should mention %q", err, tc.want)
			}
		})
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Fatalf("unmutated workload should validate: %v", err)
	}
}

func TestWorkloadFingerprints(t *testing.T) {
	w := *workloadFile(t).Workload

	// The stream fingerprint carries the rate but not the seed or the
	// scheduler/policy axes: cells at different rates never collide, and
	// renaming axes or reseeding does not invalidate stream identity.
	fpA, err := w.StreamFingerprint(2)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := w.StreamFingerprint(5)
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Fatal("different rates must fingerprint differently")
	}
	mut := w
	mut.Seed = 99
	mut.Schedulers = []string{"other"}
	mutFP, err := mut.StreamFingerprint(2)
	if err != nil {
		t.Fatal(err)
	}
	if mutFP != fpA {
		t.Fatal("seed and axes must not enter the stream fingerprint")
	}

	// Class names are cosmetic; class configs are content.
	named := w
	named.Mix = append([]scenario.JobClass(nil), w.Mix...)
	named.Mix[0].Name = "renamed"
	namedFP, err := named.StreamFingerprint(2)
	if err != nil {
		t.Fatal(err)
	}
	if namedFP != fpA {
		t.Fatal("class names must not enter the stream fingerprint")
	}
	resized := w
	resized.Mix = append([]scenario.JobClass(nil), w.Mix...)
	resized.Mix[0].Config = json.RawMessage(`{"Iters": 4}`)
	resizedFP, err := resized.StreamFingerprint(2)
	if err != nil {
		t.Fatal(err)
	}
	if resizedFP == fpA {
		t.Fatal("class config changes must change the stream fingerprint")
	}

	// The workload fingerprint adds seed and axes on top of the streams.
	wfp, err := w.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	mutWFP, err := mut.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if wfp == mutWFP {
		t.Fatal("seed/axis changes must change the workload fingerprint")
	}

	// Defaults are resolved into the fingerprint: an explicit default
	// equals an elided one.
	explicit := w
	explicit.CkptDeltaFrac = scenario.DefaultCkptDeltaFrac
	explicit.BoundSeconds = scenario.DefaultSlowdownBound
	expFP, err := explicit.StreamFingerprint(2)
	if err != nil {
		t.Fatal(err)
	}
	if expFP != fpA {
		t.Fatal("explicit defaults must fingerprint like elided ones")
	}
}

func TestWorkloadPoints(t *testing.T) {
	w := *workloadFile(t).Workload
	pts := w.Points()
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	for i, p := range pts {
		if len(p.Rates) != 1 || p.Rates[0] != w.Rates[i] {
			t.Fatalf("point %d carries rates %v", i, p.Rates)
		}
		if p.Nodes != w.Nodes || len(p.Mix) != len(w.Mix) {
			t.Fatalf("point %d lost workload fields", i)
		}
	}
}
