package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions; the tests hold the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd is what an untraced run reports: what a user running sweeps,
// campaigns, job streams or explorations sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"units_per_s", "units/s", "higher"},
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer is what a traced run reports. Names are layer.metric, with the
// layer named after the repository package it describes. A metric of a
// layer the workload does not reach reads 0. Each micro-benchmark
// (micro.go) adds its ns, allocs and bytes per operation.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.expand_s", "s", "lower"},

		{"experiments.runs", "count", "lower"},
		{"experiments.memo_hits", "count", "higher"},
		{"experiments.sweep_s", "s", "lower"},
		{"experiments.render_s", "s", "lower"},
		{"experiments.run_ms.p50", "ms", "lower"},
		{"experiments.run_ms.p90", "ms", "lower"},
		{"experiments.run_ms.n", "count", "higher"},
		{"experiments.parallel_eff", "ratio", "higher"},

		{"sim.events", "count", "lower"},
		{"sim.procs", "count", "lower"},
		{"sim.est_s", "s", "lower"},

		{"replication.crashes", "count", "lower"},

		{"core.sections", "count", "lower"},
		{"core.tasks_run", "count", "lower"},
		{"core.tasks_received", "count", "higher"},
		{"core.update_mb", "MB", "lower"},
		{"core.replay_s", "s", "lower"},

		{"kernels.calls", "count", "lower"},

		{"fault.draws", "count", "lower"},
		{"fault.draw_s", "s", "lower"},

		{"ckptsim.replays", "count", "lower"},
		{"ckptsim.replay_s", "s", "lower"},

		{"campaign.prepare_s", "s", "lower"},
		{"campaign.aggregate_s", "s", "lower"},
		{"campaign.trials", "count", "lower"},

		{"explore.trials_refine", "count", "lower"},
		{"explore.trials_bisect", "count", "lower"},
		{"explore.trials_tau", "count", "lower"},
		{"explore.trials_to_crossover", "count", "lower"},
		{"explore.rounds", "count", "lower"},
		{"explore.probes", "count", "lower"},
		{"explore.run_s", "s", "lower"},

		{"jobstream.jobs", "count", "lower"},
		{"jobstream.completed", "count", "higher"},
		{"jobstream.failed", "count", "lower"},
		{"jobstream.replicated", "count", "lower"},
		{"jobstream.ccr", "count", "lower"},
		{"jobstream.run_s", "s", "lower"},

		{"store.puts", "count", "lower"},
		{"store.hits", "count", "higher"},
		{"store.misses", "count", "lower"},
		{"store.dupes", "count", "lower"},
		{"store.mb", "MB", "lower"},
		{"store.merge_hit_ratio", "ratio", "higher"},
		{"store.populate_s", "s", "lower"},
		{"store.open_s", "s", "lower"},
		{"store.rerun_s", "s", "lower"},
		{"store.verify_s", "s", "lower"},
		{"store.compact_s", "s", "lower"},
		{"store.merge_s", "s", "lower"},

		{"gc.alloc_kb_per_unit", "KiB/unit", "lower"},
		{"gc.cycles", "count", "lower"},
		{"gc.cpu_frac", "ratio", "lower"},

		{"unattributed_s", "s", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
	}
	for _, m := range slices.Sorted(maps.Keys(micros)) {
		defs = append(defs,
			metricDef{m + ".ns", "ns/op", "lower"},
			metricDef{m + ".allocs", "allocs/op", "lower"},
			metricDef{m + ".bytes", "B/op", "lower"},
		)
	}
	return defs
}()

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one declared metric list. Setting an
// undeclared name is a bug in the benchmark, reported as an error rather
// than as an extra metric BENCHMARK.json does not declare.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: map[string]metricDef{}, vals: map[string]metricValue{}}
	for _, d := range defs {
		s.defs[d.name] = d
		s.vals[d.name] = metricValue{Unit: d.unit}
	}
	return s
}

func (s *metricSet) set(name string, v float64) error {
	d, ok := s.defs[name]
	if !ok {
		return fmt.Errorf("perfbench: undeclared metric %q", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("perfbench: metric %s is %g", name, v)
	}
	s.vals[name] = metricValue{Value: v, Unit: d.unit}
	return nil
}
