package experiments

import (
	"fmt"

	"repro/internal/apps/amg"
	"repro/internal/apps/apputil"
	"repro/internal/apps/gtc"
	"repro/internal/apps/hpccg"
	"repro/internal/apps/minighost"
	"repro/internal/ckpt"
	"repro/internal/scenario"
)

// SizeDivisor is re-exported from apputil, where the paper-scale app
// configs live (see apputil.SizeDivisor).
const SizeDivisor = apputil.SizeDivisor

// Fig6aConfig is the AMG 27-point PCG problem of Figure 6a.
func Fig6aConfig() amg.Config { return amg.PaperPCGConfig() }

// Fig6bConfig is the AMG 7-point GMRES problem of Figure 6b.
func Fig6bConfig() amg.Config { return amg.PaperGMRESConfig() }

// Fig6cConfig is the GTC problem of Figure 6c (mzetamax=64, npartdom=4,
// micell=200 scaled down).
func Fig6cConfig() gtc.Config { return gtc.PaperConfig() }

// Fig6dConfig is the MiniGhost problem of Figure 6d (128x128x64, 27-point).
func Fig6dConfig() minighost.Config { return minighost.PaperConfig() }

// hpccgTriple is the three-mode protocol of Figure 5: native on the full
// physical-process budget, both replicated modes on half the logical ranks
// (same physical budget, degree 2).
func hpccgTriple(tag string, physProcs, iters int, intraWaxpby bool) []scenario.Scenario {
	native := scenario.MustRaw(hpccg.PaperConfig(false, iters, intraWaxpby))
	repl := scenario.MustRaw(hpccg.PaperConfig(true, iters, intraWaxpby))
	return []scenario.Scenario{
		{Name: tag + "/native", App: "hpccg", Config: native, Mode: Native, Logical: physProcs},
		{Name: tag + "/classic", App: "hpccg", Config: repl, Mode: Classic, Logical: physProcs / 2},
		{Name: tag + "/intra", App: "hpccg", Config: repl, Mode: Intra, Logical: physProcs / 2},
	}
}

// measures extracts the raw aggregates, the form the renderers consume.
func measures(res []Result) []*Measure {
	ms := make([]*Measure, len(res))
	for i := range res {
		ms[i] = res[i].Measure
	}
	return ms
}

// fig5aScenarios declares Figure 5a: normalized per-kernel execution time
// and efficiency for waxpby, ddot and sparsemv on 512 physical processes,
// with the time spent on non-overlapped update transfers.
func fig5aScenarios(procs, iters int) ([]scenario.Scenario, error) {
	return hpccgTriple("fig5a", orDefault(procs, 512), orDefault(iters, 10), true), nil
}

func fig5aRender(scs []scenario.Scenario, res []Result) (*Table, error) {
	if len(res) != 3 {
		return nil, fmt.Errorf("fig5a renders 3 points, got %d", len(res))
	}
	ms := measures(res)
	native, classic, intra := ms[0], ms[1], ms[2]
	t := &Table{
		ID:     "fig5a",
		Title:  fmt.Sprintf("HPCCG kernels, %d physical processes (normalized time; efficiency)", native.PhysProcs),
		Header: []string{"kernel", "OpenMPI", "SDR-MPI", "SDR eff", "intra", "intra eff", "intra updates"},
	}
	for _, k := range []string{"waxpby", "ddot", "sparsemv"} {
		base := native.Kernels[k].Wall
		cw := classic.Kernels[k].Wall
		iw := intra.Kernels[k].Wall
		t.AddRow(k,
			"1.00",
			ratio(cw, base), fmt.Sprintf("%.2f", float64(base)/float64(cw)),
			ratio(iw, base), fmt.Sprintf("%.2f", float64(base)/float64(iw)),
			ratio(intra.Kernels[k].UpdateWait, base),
		)
	}
	t.Note("paper: eff 1 / 0.5 / {waxpby 0.34, ddot 0.99, sparsemv 0.94}")
	t.Note("'intra updates' is non-overlapped update-transfer time, normalized to OpenMPI")
	return t, nil
}

// fig5bScenarios declares Figure 5b: HPCCG total execution time under weak
// scaling, with intra-parallelization applied to ddot and sparsemv only.
// All proc-count/mode combinations run through one sweep.
func fig5bScenarios(procs, iters int) ([]scenario.Scenario, error) {
	counts := []int{128, 256, 512}
	if procs > 0 {
		counts = []int{procs}
	}
	var scs []scenario.Scenario
	for _, p := range counts {
		scs = append(scs, hpccgTriple(fmt.Sprintf("fig5b/%d", p), p, orDefault(iters, 10), false)...)
	}
	return scs, nil
}

func fig5bRender(scs []scenario.Scenario, res []Result) (*Table, error) {
	if len(res) == 0 || len(res)%3 != 0 || len(scs) != len(res) {
		return nil, fmt.Errorf("fig5b renders triples of points, got %d", len(res))
	}
	ms := measures(res)
	t := &Table{
		ID:     "fig5b",
		Title:  "HPCCG weak scaling (total execution time in seconds; efficiency)",
		Header: []string{"phys procs", "OpenMPI", "SDR-MPI", "SDR eff", "intra", "intra eff"},
	}
	for i := 0; i < len(ms)/3; i++ {
		native, classic, intra := ms[3*i], ms[3*i+1], ms[3*i+2]
		// The native point runs the full physical budget: its logical rank
		// count is the group's -procs value.
		t.AddRow(fmt.Sprintf("%d", scs[3*i].Logical),
			secs(native.AppTotal),
			secs(classic.AppTotal), fmt.Sprintf("%.2f", Efficiency(native, classic)),
			secs(intra.AppTotal), fmt.Sprintf("%.2f", Efficiency(native, intra)),
		)
	}
	t.Note("paper: SDR eff 0.5; intra eff 0.80 / 0.79 / 0.82 at 128 / 256 / 512")
	return t, nil
}

// fig6Scenarios builds one application's Figure 6 protocol: constant
// problem size, native on `logical` processes, replicated modes on twice
// the physical resources.
func fig6Scenarios(id, appName string, cfg any, logical int) []scenario.Scenario {
	raw := scenario.MustRaw(cfg)
	return []scenario.Scenario{
		{Name: id + "/native", App: appName, Config: raw, Mode: Native, Logical: logical},
		{Name: id + "/classic", App: appName, Config: raw, Mode: Classic, Logical: logical},
		{Name: id + "/intra", App: appName, Config: raw, Mode: Intra, Logical: logical},
	}
}

// fig6Render renders the Figure 6 table family.
func fig6Render(id, title, paperNote string) func([]scenario.Scenario, []Result) (*Table, error) {
	return func(scs []scenario.Scenario, res []Result) (*Table, error) {
		if len(res) != 3 {
			return nil, fmt.Errorf("%s renders 3 points, got %d", id, len(res))
		}
		ms := measures(res)
		native := ms[0]
		t := &Table{
			ID:     id,
			Title:  title,
			Header: []string{"config", "phys procs", "time (s)", "sections (s)", "others (s)", "efficiency"},
		}
		for _, m := range ms {
			t.AddRow(m.Mode.String(),
				fmt.Sprintf("%d", m.PhysProcs),
				secs(m.AppTotal),
				secs(m.Stats.SectionTime),
				secs(m.AppTotal-m.Stats.SectionTime),
				fmt.Sprintf("%.2f", Efficiency(native, m)),
			)
		}
		frac := float64(native.Stats.SectionTime) / float64(native.AppTotal)
		t.Note("sections cover %.0f%% of the native execution time", 100*frac)
		t.Note("%s", paperNote)
		return t, nil
	}
}

// CkptModelTable regenerates the §II motivation: cCR efficiency collapses
// with shrinking MTBF while replication-based schemes hold theirs. The
// table is analytic (internal/ckpt): it has no scenarios to simulate.
func CkptModelTable() *Table {
	t := &Table{
		ID:    "ckpt",
		Title: "Checkpoint/restart vs replication efficiency (Daly model, delta=R=600s)",
		Header: []string{"nodes", "node MTBF", "sys MTBF (h)", "cCR eff",
			"repl eff", "repl+intra eff (base 0.7)"},
	}
	const nodeMTBF = 5 * 365 * 24 * 3600.0 // 5 years in seconds
	const delta, rst = 600.0, 600.0
	for _, n := range []int{10000, 50000, 100000, 200000, 500000} {
		sysM := ckpt.SystemMTBF(n, nodeMTBF)
		t.AddRow(
			fmt.Sprintf("%d", n),
			"5y",
			fmt.Sprintf("%.1f", sysM/3600),
			fmt.Sprintf("%.2f", ckpt.BestEfficiency(delta, rst, sysM)),
			fmt.Sprintf("%.2f", ckpt.ReplicatedEfficiency(0.5, n/2, nodeMTBF, delta, rst)),
			fmt.Sprintf("%.2f", ckpt.ReplicatedEfficiency(0.7, n/2, nodeMTBF, delta, rst)),
		)
	}
	t.Note("replication uses half the nodes for replicas: efficiencies already include the x2 resources")
	t.Note("crossover: below the MTBF where cCR eff < 0.5, replication wins; intra-parallelization raises the bar to its base efficiency")
	return t
}
