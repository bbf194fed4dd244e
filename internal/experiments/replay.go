package experiments

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/sim"
)

// RecordTraces runs the spec once, fault-free, with every runner in
// recording mode, and returns the per-logical-rank logical-op traces. A
// spec carrying those traces in Spec.Replay then simulates without
// executing the application at all: the trial accelerator of the
// campaign's crashed classic trials and of jobstream's crashed
// replicated jobs.
//
// Recording is limited to the section-free engine modes (native, classic):
// the intra engine's section protocol runs below the recording boundary
// and reacts to failures, so its trials must keep executing for real.
func RecordTraces(s Spec) (*core.TraceSet, error) {
	if s.App.main == nil {
		return nil, fmt.Errorf("spec %q has no application", s.Name)
	}
	c, err := NewCluster(ClusterConfig{
		Logical: s.Logical, Mode: s.Mode, Degree: s.Degree,
		Net: s.Net, Machine: s.Machine,
		IntraOpts: core.Options{Mode: s.Inout, CostScale: s.CostScale},
	})
	if err != nil {
		return nil, err
	}
	ts := core.NewTraceSet(s.Logical)
	var firstErr error
	c.Launch(func(rt core.Runner) {
		tr, err := core.StartRecording(rt)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		total, _, _, err := s.App.main(rt)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", rt.LogicalRank(), err)
			}
			return
		}
		ts.Commit(rt.LogicalRank(), tr, total)
	})
	if _, err := c.Run(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !ts.Complete() {
		return nil, fmt.Errorf("experiments: trace recording for %q left ranks without a trace", s.Name)
	}
	return ts, nil
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
