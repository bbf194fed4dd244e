package experiments

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// RecordTraces runs the spec's logical program once, fault-free, with
// every runner in recording mode, and returns the per-logical-rank traces
// of its Runner-level calls, sections included. A spec carrying those
// traces in Spec.Replay then simulates without executing the application
// at all, under the classic or the intra engine: the trial accelerator of
// the campaign's crashed replicated trials and of jobstream's crashed
// replicated jobs.
//
// The recording runs the spec's classic twin (RecordingKey): the
// application cannot tell the engines apart, and a classic replica runs
// every task of every section, so the trace holds each task body's
// compute.
func RecordTraces(s Spec) (*core.TraceSet, error) {
	if s.App.main == nil {
		return nil, fmt.Errorf("spec %q has no application", s.Name)
	}
	ts := core.NewTraceSet(s.Logical)
	if _, err := run(nil, nil, recordingSpec(s), ts); err != nil {
		return nil, err
	}
	return ts, nil
}

// RecordingKey is the content key of the run RecordTraces records s from,
// so specs that share it share one recording: the classic and intra points
// of one application, logical size, degree and platform. The degree and
// the platform stay in the key because a classic replay reports the in-app
// total its recording measured.
func RecordingKey(s Spec) (string, error) { return recordingSpec(s).Key() }

// recordingSpec is s's classic twin, fault-free and executed.
func recordingSpec(s Spec) Spec {
	s.Mode, s.Inout = scenario.Classic, core.CopyRestore
	s.Fault, s.Replay = nil, nil
	return s
}

// replayMain adapts a trace set to the appMain signature. Kernel timings
// are not re-derived (the kernels never run); the runner stats reflect the
// replay's own accounting.
func replayMain(ts *core.TraceSet) appMain {
	return func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
		total, err := core.Replay(rt, ts)
		return total, nil, *rt.Stats(), err
	}
}

// recordingMain wraps main so that every runner records its trace and
// commits it to rec once main returns.
func recordingMain(main appMain, rec *core.TraceSet) appMain {
	return func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
		tr, err := core.StartRecording(rt)
		if err != nil {
			return 0, nil, core.Stats{}, err
		}
		total, kernels, st, err := main(rt)
		if err == nil {
			rec.Commit(rt.LogicalRank(), tr, total)
		}
		return total, kernels, st, err
	}
}
