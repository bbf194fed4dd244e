package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []metricDef, defs []metricDef) {
		t.Helper()
		byName := map[string]metricDef{}
		for _, d := range defs {
			byName[d.name] = d
		}
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program declares %d", kind, len(got), len(defs))
		}
		for _, g := range got {
			if d, ok := byName[g.name]; !ok || d != g {
				t.Errorf("%s: BENCHMARK.json has %+v, program declares %+v", kind, g, d)
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestWorkloadsTiny runs every workload at a small size in both modes: the
// checks pass, the metrics emitted are exactly the declared ones, and in
// the traced run the traced and two-worker repetitions reproduce the
// untraced one byte for byte (the checker compares them).
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stderr bytes.Buffer
			res, err := measure(w, options{seed: 1, tiny: true}, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, &stderr)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
				}
			}

			out := filepath.Join(t.TempDir(), "trace.json")
			res, err = traced(w, options{seed: 2, tiny: true, traceOut: out}, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, &stderr)
			checkTraceFile(t, out)
		})
	}
}

func checkResult(t *testing.T, res result, defs []metricDef, stderr *bytes.Buffer) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d; stderr:\n%s", res.Correct, res.Attempted, res.Failed, stderr)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: emitted %+v, declared unit %s", d.name, m, d.unit)
		}
	}
}

// checkTraceFile checks the file is Chrome trace-event JSON: complete
// events with names, layers and non-negative times, one of them the
// traced repetition.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	rep := false
	for _, ev := range tf.TraceEvents {
		name, _ := ev["name"].(string)
		cat, _ := ev["cat"].(string)
		ts, tsOK := ev["ts"].(float64)
		dur, durOK := ev["dur"].(float64)
		if ev["ph"] != "X" || name == "" || cat == "" || !tsOK || !durOK || ts < 0 || dur < 0 {
			t.Errorf("malformed trace event %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Errorf("trace event without pid: %v", ev)
		}
		rep = rep || name == "perfbench.rep"
	}
	if !rep {
		t.Errorf("trace has no perfbench.rep span among %d events", len(tf.TraceEvents))
	}
}

func TestCheckerCountsDivergentRepetitions(t *testing.T) {
	var stderr bytes.Buffer
	ck := &checker{stderr: &stderr}
	ck.check("a", outcome{units: 3, out: []byte("x")}, nil)
	ck.check("b", outcome{units: 3, out: []byte("x")}, nil)
	ck.check("c", outcome{units: 3, out: []byte("y")}, nil)
	ck.check("d", outcome{}, os.ErrInvalid)
	res := ck.result(newMetricSet(endToEnd))
	if res.Correct || res.Attempted != 12 || res.Failed != 6 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 12 6", res.Correct, res.Attempted, res.Failed)
	}
}

// BenchmarkMicros runs the layer micro-benchmarks, for measuring while
// working on one layer: go test -run '^$' -bench Micros/kernels .
func BenchmarkMicros(b *testing.B) {
	for _, name := range slices.Sorted(maps.Keys(micros)) {
		b.Run(name, micros[name])
	}
}
