package experiments

import (
	"fmt"

	"repro/internal/apps/hpccg"
	"repro/internal/scenario"
)

var granularityTaskCounts = []int{1, 2, 4, 8, 16, 32, 64}

// granularityScenarios sweeps the number of tasks per section on HPCCG
// (§V-B: 8 tasks per section is the paper's default; fewer tasks reduce
// transfer/compute overlap, more tasks add synchronization overhead). The
// native baseline and every granularity run through one parallel sweep.
func granularityScenarios(procs, iters int) ([]scenario.Scenario, error) {
	physProcs := orDefault(procs, 64)
	iters = orDefault(iters, 10)
	scs := []scenario.Scenario{{
		Name: "granularity/native", App: "hpccg",
		Config: scenario.MustRaw(hpccg.PaperConfig(false, iters, false)),
		Mode:   Native, Logical: physProcs,
	}}
	for _, tasks := range granularityTaskCounts {
		cfg := hpccg.PaperConfig(true, iters, false)
		cfg.Tasks = tasks
		scs = append(scs, scenario.Scenario{
			Name: fmt.Sprintf("granularity/%d", tasks), App: "hpccg",
			Config: scenario.MustRaw(cfg),
			Mode:   Intra, Logical: physProcs / 2,
		})
	}
	return scs, nil
}

func granularityRender(scs []scenario.Scenario, res []Result) (*Table, error) {
	if len(res) < 2 || len(scs) != len(res) {
		return nil, fmt.Errorf("granularity renders a native point plus task counts, got %d points", len(res))
	}
	ms := measures(res)
	native := ms[0]
	t := &Table{
		ID:     "granularity",
		Title:  fmt.Sprintf("Ablation: tasks per section (HPCCG, %d physical processes)", native.PhysProcs),
		Header: []string{"tasks/section", "intra time (s)", "efficiency", "update wait (s)"},
	}
	for i, m := range ms[1:] {
		cfg, err := scs[i+1].AppConfig()
		if err != nil {
			return nil, err
		}
		hc, ok := cfg.(*hpccg.Config)
		if !ok {
			return nil, fmt.Errorf("granularity renders hpccg points, got %q", scs[i+1].App)
		}
		t.AddRow(fmt.Sprintf("%d", hc.Tasks), secs(m.AppTotal),
			fmt.Sprintf("%.3f", Efficiency(native, m)),
			secs(m.Stats.UpdateWait))
	}
	t.Note("paper's default is 8 tasks/section (4 per replica)")
	return t, nil
}

// inoutScenarios compares the two protections against the Figure 2
// hazard — copy-on-receive vs atomic update application — on GTC, the
// application with inout task arguments (§III-B2 claims similar cost).
func inoutScenarios(procs, iters int) ([]scenario.Scenario, error) {
	physProcs := orDefault(procs, 64)
	raw := scenario.MustRaw(Fig6cConfig())
	var scs []scenario.Scenario
	for _, mode := range []string{"copy", "atomic"} {
		scs = append(scs, scenario.Scenario{
			Name: "inout/" + mode, App: "gtc", Config: raw,
			Mode: Intra, Logical: physProcs / 2,
			Intra: &scenario.IntraOptions{Inout: mode},
		})
	}
	return scs, nil
}

func inoutRender(scs []scenario.Scenario, res []Result) (*Table, error) {
	if len(res) != 2 || len(scs) != len(res) {
		return nil, fmt.Errorf("inout renders 2 points, got %d", len(res))
	}
	ms := measures(res)
	t := &Table{
		ID:     "inout",
		Title:  fmt.Sprintf("Ablation: inout protection mode (GTC, %d logical processes)", scs[0].Logical),
		Header: []string{"mode", "time (s)", "copy overhead (s)", "copy/section"},
	}
	for i, m := range ms {
		label := "copy" // an omitted intra block runs the copy-restore default
		if scs[i].Intra != nil && scs[i].Intra.Inout != "" {
			label = scs[i].Intra.Inout
		}
		frac := float64(m.Stats.CopyTime) / float64(m.Stats.SectionTime)
		t.AddRow(label, secs(m.AppTotal), secs(m.Stats.CopyTime),
			fmt.Sprintf("%.1f%%", 100*frac))
	}
	t.Note("paper (§III-B2): both solutions have similar cost")
	t.Note("paper (§V-D): extra copies add ~6%% overhead on GTC's affected tasks")
	return t, nil
}

var ablationDegrees = []int{2, 3}

// degreeScenarios measures intra-parallelization efficiency as a function
// of the replication degree on a fixed HPCCG problem. The paper argues
// (§II) that degree 2 is the appropriate choice for crash failures; this
// table shows why higher degrees do not pay: sections speed up at most
// d-fold while the resource bill grows d-fold and the replicated parts
// are never shared.
func degreeScenarios(procs, iters int) ([]scenario.Scenario, error) {
	logical := orDefault(procs, 32)
	raw := scenario.MustRaw(hpccg.Config{
		Nx: 16, Ny: 16, Nz: 16, Iters: 10, Tasks: 12,
		Scale: 512, PlaneScale: 64,
	})
	scs := []scenario.Scenario{{
		Name: "degree/native", App: "hpccg", Config: raw, Mode: Native, Logical: logical,
	}}
	for _, d := range ablationDegrees {
		scs = append(scs, scenario.Scenario{
			Name: fmt.Sprintf("degree/%d", d), App: "hpccg", Config: raw,
			Mode: Intra, Logical: logical, Degree: d,
		})
	}
	return scs, nil
}

func degreeRender(scs []scenario.Scenario, res []Result) (*Table, error) {
	if len(res) < 2 || len(scs) != len(res) {
		return nil, fmt.Errorf("degree renders a native point plus degrees, got %d points", len(res))
	}
	ms := measures(res)
	native := ms[0]
	t := &Table{
		ID:     "degree",
		Title:  fmt.Sprintf("Extension: replication degree (HPCCG, %d logical processes, constant problem)", scs[0].Logical),
		Header: []string{"degree", "phys procs", "time (s)", "efficiency"},
	}
	t.AddRow("1 (native)", fmt.Sprintf("%d", native.PhysProcs), secs(native.AppTotal), "1.00")
	for i, m := range ms[1:] {
		t.AddRow(fmt.Sprintf("%d", scs[i+1].Degree), fmt.Sprintf("%d", m.PhysProcs),
			secs(m.AppTotal), fmt.Sprintf("%.2f", Efficiency(native, m)))
	}
	t.Note("degree 2 tolerates any single failure per logical rank; degree 3 buys little speedup for 1.5x the resources (§II)")
	return t, nil
}
