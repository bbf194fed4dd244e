package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestModeStrings(t *testing.T) {
	if Native.String() != "Open MPI" || Classic.String() != "SDR-MPI" || Intra.String() != "intra" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("unknown mode must render error-worthy, got %q", Mode(9).String())
	}
	if Native.Replicated() || !Classic.Replicated() || !Intra.Replicated() {
		t.Fatal("Replicated wrong")
	}
}

func mustCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterSizes(t *testing.T) {
	n := mustCluster(t, ClusterConfig{Logical: 8, Mode: Native})
	if n.PhysProcs() != 8 || n.Sys != nil {
		t.Fatalf("native cluster: %d procs", n.PhysProcs())
	}
	r := mustCluster(t, ClusterConfig{Logical: 8, Mode: Intra})
	if r.PhysProcs() != 16 || r.Sys == nil {
		t.Fatalf("intra cluster: %d procs", r.PhysProcs())
	}
}

// TestClusterRejectsPartialPlatform is the regression test for the silent
// default-substitution bug: a custom net or machine with a zero key field
// used to be swapped wholesale for the Grid'5000 default; it must be an
// error instead. The zero value still selects the default platform.
func TestClusterRejectsPartialPlatform(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Logical: 2, Mode: Native,
		Net: simnet.Config{Latency: sim.Micros(1), LocalBandwidth: 1e9, CoresPerNode: 4}}); err == nil ||
		!strings.Contains(err.Error(), "bandwidth") {
		t.Fatalf("zero-bandwidth custom net must error, got %v", err)
	}
	if _, err := NewCluster(ClusterConfig{Logical: 2, Mode: Native,
		Machine: perf.Machine{MemBWPerCore: 1e9}}); err == nil ||
		!strings.Contains(err.Error(), "flop") {
		t.Fatalf("zero-flops custom machine must error, got %v", err)
	}
	if _, err := NewCluster(ClusterConfig{Logical: 0, Mode: Native}); err == nil {
		t.Fatal("zero logical ranks must error")
	}
	if _, err := NewCluster(ClusterConfig{Logical: 2, Mode: Mode(7)}); err == nil {
		t.Fatal("unknown mode must error")
	}
	if _, err := NewCluster(ClusterConfig{Logical: 2, Mode: Classic}); err != nil {
		t.Fatalf("zero-value platform must select the default, got %v", err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Note("hello %d", 7)
	s := tab.String()
	for _, want := range []string{"x — demo", "a", "bb", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestEfficiencyMath(t *testing.T) {
	native := &Measure{AppTotal: 100, PhysProcs: 256}
	same := &Measure{AppTotal: 100, PhysProcs: 512}
	if e := Efficiency(native, same); e != 0.5 {
		t.Fatalf("eff = %v, want 0.5", e)
	}
	faster := &Measure{AppTotal: 50, PhysProcs: 512}
	if e := Efficiency(native, faster); e != 1.0 {
		t.Fatalf("eff = %v, want 1.0", e)
	}
}

func TestRunProgramExecutes(t *testing.T) {
	ran := 0
	_, err := RunProgram(ClusterConfig{Logical: 3, Mode: Classic}, func(rt core.Runner) {
		rt.Compute(perf.Work{Flops: 1e6})
		ran++
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 6 { // 3 logical x 2 replicas
		t.Fatalf("ran = %d, want 6", ran)
	}
}

func parseEff(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad efficiency cell %q", cell)
	}
	return v
}

// TestFig5aSmallShape runs Figure 5a on a small cluster and checks the
// paper's qualitative result: ddot and sparsemv profit from
// intra-parallelization, waxpby does not.
func TestFig5aSmallShape(t *testing.T) {
	tab, err := RunFigure("fig5a", 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	eff := map[string]float64{}
	sdr := map[string]float64{}
	for _, row := range tab.Rows {
		eff[row[0]] = parseEff(t, row[5])
		sdr[row[0]] = parseEff(t, row[3])
	}
	for k, v := range sdr {
		if v < 0.45 || v > 0.55 {
			t.Fatalf("SDR efficiency for %s = %v, want ~0.5", k, v)
		}
	}
	if eff["ddot"] < 0.85 || eff["sparsemv"] < 0.85 {
		t.Fatalf("ddot/sparsemv should be near 1: %v", eff)
	}
	if eff["waxpby"] > 0.55 {
		t.Fatalf("waxpby should not profit: %v", eff["waxpby"])
	}
	if eff["waxpby"] >= eff["sparsemv"] || eff["sparsemv"] > eff["ddot"]+0.1 {
		t.Fatalf("ordering wrong: %v", eff)
	}
}

// TestFig5bSmallShape checks SDR pins at 0.5 and intra lands clearly above.
func TestFig5bSmallShape(t *testing.T) {
	tab, err := RunFigure("fig5b", 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	sdr, intra := parseEff(t, row[3]), parseEff(t, row[5])
	if sdr < 0.45 || sdr > 0.55 {
		t.Fatalf("SDR eff = %v", sdr)
	}
	if intra < 0.65 {
		t.Fatalf("intra eff = %v, want > 0.65", intra)
	}
}

// TestFig6SmallShapes runs the four applications of Figure 6 on small
// clusters and checks the efficiency ordering of the paper: GTC > AMG-PCG >
// AMG-GMRES > MiniGhost, with everything in (0.5, 1).
func TestFig6SmallShapes(t *testing.T) {
	get := func(id string, procs int) float64 {
		t.Helper()
		tab, err := RunFigure(id, procs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return parseEff(t, tab.Rows[2][5])
	}
	gtcEff := get("fig6c", 16)
	pcg := get("fig6a", 16)
	gmres := get("fig6b", 16)
	mg := get("fig6d", 16)
	for name, v := range map[string]float64{"gtc": gtcEff, "pcg": pcg, "gmres": gmres, "mg": mg} {
		if v <= 0.5 || v >= 1 {
			t.Fatalf("%s intra efficiency %v outside (0.5, 1)", name, v)
		}
	}
	if mg > 0.6 {
		t.Fatalf("MiniGhost should barely profit (10%% coverage): %v", mg)
	}
	if gtcEff < pcg-0.05 {
		t.Fatalf("GTC (%v) should be at least comparable to AMG-PCG (%v)", gtcEff, pcg)
	}
	if gmres > pcg {
		t.Fatalf("GMRES (%v) should not beat PCG (%v): lower section coverage", gmres, pcg)
	}
}

func TestCkptModelTable(t *testing.T) {
	tab := CkptModelTable()
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// cCR efficiency must fall with system size; replicated stays ~base.
	first := parseEff(t, tab.Rows[0][3])
	last := parseEff(t, tab.Rows[len(tab.Rows)-1][3])
	if last >= first {
		t.Fatalf("cCR efficiency should fall with scale: %v -> %v", first, last)
	}
	for _, row := range tab.Rows {
		repl := parseEff(t, row[4])
		intra := parseEff(t, row[5])
		if repl < 0.4 || repl > 0.5 {
			t.Fatalf("replication eff %v out of range", repl)
		}
		if intra <= repl {
			t.Fatalf("intra (%v) must beat plain replication (%v)", intra, repl)
		}
	}
	// The motivating crossover: at the largest scale cCR must be below
	// what replication+intra delivers.
	if last >= 0.5 {
		t.Fatalf("expected cCR below 0.5 at extreme scale, got %v", last)
	}
}

// TestAblationsRun exercises the two ablation tables on tiny clusters.
func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	tab, err := RunFigure("granularity", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// One task per section cannot overlap anything: worst efficiency.
	if parseEff(t, tab.Rows[0][2]) >= parseEff(t, tab.Rows[3][2]) {
		t.Fatal("1 task should be worse than 8 tasks")
	}
	inout, err := RunFigure("inout", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inout.Rows) != 2 {
		t.Fatalf("inout rows = %d", len(inout.Rows))
	}
}

// TestAblationDegree checks the §II argument: degree 2 is the sweet spot;
// degree 3 costs efficiency.
func TestAblationDegree(t *testing.T) {
	tab, err := RunFigure("degree", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	d2 := parseEff(t, tab.Rows[1][3])
	d3 := parseEff(t, tab.Rows[2][3])
	if d2 <= 0.5 {
		t.Fatalf("degree 2 efficiency %v should beat the 50%% wall", d2)
	}
	if d3 >= d2 {
		t.Fatalf("degree 3 (%v) should be less efficient than degree 2 (%v)", d3, d2)
	}
}
