// Command sweep fans experiment grids out across all available cores, one
// sim.Engine per worker, and reports results as aligned tables or JSON.
// Every front end speaks the same language: the canonical scenario type of
// internal/scenario.
//
// Figure mode regenerates the paper's evaluation in parallel:
//
//	sweep -figures all
//	sweep -figures fig5a,fig6c -json
//
// Grid mode explores arbitrary scenario grids beyond the paper's fixed
// figures — any cross product of application, mode, physical process
// count, replication degree, interconnect and machine model:
//
//	sweep -app hpccg -modes native,classic,intra -procs 32,64,128
//	sweep -app gtc -modes intra -procs 64 -degrees 2,3 -net eth10g -json
//
// Scenario-file mode loads a checked-in scenario file (a grid, an explicit
// scenario list, or a figure reproduction — see scenarios/ and README.md),
// validates it, expands it and runs it:
//
//	sweep -spec scenarios/fig5a.json
//	sweep -spec scenarios/smoke.json -json
//	sweep -spec scenarios/campaign-mtbf.json -mode campaign
//	sweep -spec scenarios/fig5b.json -validate   # check without running
//
// Campaign mode layers Monte Carlo failure injection over the grid: per
// scenario point it runs -trials seeded simulations with crash schedules
// drawn from an exponential per-replica MTBF, and aggregates makespan,
// efficiency and survival statistics with confidence intervals next to the
// analytic §II checkpoint/restart model:
//
//	sweep -mode campaign -app hpccg -procs 16 -mtbf 0.05,0.2,1
//	sweep -mode campaign -app gtc -modes intra -trials 200 -seed 7 -json
//
// -ft ccr adds the measured checkpoint/restart side of the §II comparison:
// a cCR series at the native resource budget, measured by replaying each
// point's native makespan under seeded failures with periodic checkpoints,
// rollbacks and restarts (internal/ckptsim), reported in a three-way table
// — measured replication, measured cCR, Daly's analytic prediction — with
// the measured crossover MTBF next to ckpt.CrossoverMTBF. Weak-scaling
// apps share one physical budget across the sides; fixed-size apps follow
// the grid convention of placing replicas on extra resources (degree×
// procs), and the efficiency metric is resource-normalized so the
// comparison stays commensurable:
//
//	sweep -mode campaign -ft ccr -app gtc -procs 8 -mtbf 0.01,0.1,1
//	sweep -mode campaign -ft ccr -app hpccg -ckpt-tau 0.05 -ckpt-delta 0.01 -mtbf 0.05,0.5
//	sweep -spec scenarios/campaign-ccr-vs-replication.json -mode campaign
//
// -list enumerates every registry: applications, figures, interconnect and
// machine models. Identical points inside one sweep are simulated once
// (content-keyed memo); results keep the grid order regardless of the
// worker count, so output is byte-identical to a -workers 1 run.
//
// The persistent result store extends that memo across processes: -store
// DIR backs the run with a content-addressed on-disk cache (points already
// present are served without simulating; fresh ones are appended), -shard
// i/N turns the run into one shard of a multi-process campaign (it
// simulates and persists only the unique points with index ≡ i mod N, and
// reports one populate summary instead of results: the shard and its store
// traffic, {"shard": "i/N", …, "hits", "misses", "puts"}), and the merge
// subcommand re-runs the same grid against the merged store — every point
// a cache hit, so the output is byte-identical to a single-process run —
// then verifies any stored campaign aggregates, compacts the store to one
// canonical file and reports hits/misses on stderr (a warm run shows
// misses=0):
//
//	sweep -spec scenarios/smoke.json -json -store results -shard 0/3
//	sweep -spec scenarios/smoke.json -json -store results -shard 1/3
//	sweep -spec scenarios/smoke.json -json -store results -shard 2/3
//	sweep merge -spec scenarios/smoke.json -json -store results
//
// Explore mode (-mode explore) spends a global trial budget adaptively
// instead of a fixed per-point count: CI-width-driven refinement batches
// trials where the relative CI95 is widest, the ccr-vs-replication
// crossover is located by bisection on the MTBF axis with budgeted
// CI-separated probes, and each ccr point's optimal checkpoint interval is
// golden-sectioned over measured replays on common failure traces
// (internal/explore). Trial streams derive from scenario fingerprints, so
// the output is byte-identical at any -workers count and a store-backed
// re-run is fully warm (misses=0), probe points included:
//
//	sweep -mode explore -spec scenarios/explore-crossover.json -json
//	sweep -mode explore -app gtc -procs 8 -ft ccr -mtbf 0.01,0.1,1 -budget 2000 -target-ci 0.03
//	sweep -mode explore -spec scenarios/explore-crossover.json -store results -json
//	sweep merge -mode explore -spec scenarios/explore-crossover.json -store results -json
//
// Jobstream mode runs a workload scenario file (a "workload" section; see
// scenarios/jobstream-*.json) as an open-load cluster service: a seeded
// Poisson job stream placed by pluggable schedulers under per-job
// fault-tolerance policies, compared side by side on identical arrival and
// failure streams (internal/jobstream). It composes with the store and
// shard machinery like a campaign — populate shards own cells by index,
// and a merge (or any warm rerun) serves every cell from the store:
//
//	sweep -mode jobstream -spec scenarios/jobstream-smoke.json
//	sweep -mode jobstream -spec scenarios/jobstream-policies.json -trials 10 -json
//	sweep -mode jobstream -spec scenarios/jobstream-smoke.json -store results -shard 0/3
//	sweep merge -mode jobstream -spec scenarios/jobstream-smoke.json -store results
//
// -progress D prints a heartbeat to stderr every D (e.g. -progress 2s):
// simulation units done/planned, plus store hits/misses when one is open.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/jobstream"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// storeCtx carries the persistent-store wiring through the run paths: the
// open store (nil = none), the shard this process populates (inactive =
// run everything), and whether this is the merge pass.
type storeCtx struct {
	st    *store.Store
	shard store.Shard
	merge bool
}

func main() {
	// The merge subcommand reuses the whole flag grammar: strip it before
	// parsing and remember the mode.
	args := os.Args[1:]
	mergeMode := len(args) > 0 && args[0] == "merge"
	if mergeMode {
		args = args[1:]
	}

	figures := flag.String("figures", "", "comma-separated figure ids, or 'all' (figure mode)")
	app := flag.String("app", "", "comma-separated application grid (grid mode; see -list)")
	modesFlag := flag.String("modes", "native,classic,intra", "grid: comma-separated modes")
	procsFlag := flag.String("procs", "64", "grid: comma-separated process counts (physical budget for weak-scaling apps, logical ranks otherwise); figure mode: single override")
	degreesFlag := flag.String("degrees", "2", "grid: comma-separated replication degrees")
	iters := flag.Int("iters", 0, "override solver iterations/steps (0 = default)")
	tasks := flag.Int("tasks", 0, "grid: override tasks per section (0 = default)")
	netName := flag.String("net", "ib20g", "grid: interconnect model (see -list)")
	machineName := flag.String("machine", "grid5000", "grid: machine model (see -list)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables")
	list := flag.Bool("list", false, "list registered apps, figures, nets and machines, then exit")
	specFile := flag.String("spec", "", "run a scenario file (see scenarios/)")
	validate := flag.Bool("validate", false, "with -spec: load, validate and expand the file, but do not run it")
	modeFlag := flag.String("mode", "", "'campaign' runs Monte Carlo failure injection over the -app grid or the -spec file; 'jobstream' runs a workload -spec file as an open-load cluster service")
	trials := flag.Int("trials", 100, "campaign/jobstream: seeded trials per point or cell (jobstream default 5)")
	seed := flag.Int64("seed", 1, "campaign/jobstream: master seed (jobstream default: the workload's own)")
	mtbfFlag := flag.String("mtbf", "0.2", "campaign: comma-separated per-replica MTBF values in virtual seconds")
	horizon := flag.Float64("horizon", 0, "campaign: crash-window in virtual seconds (0 = fault-free wall time; crashes drawn past a run's completion are no-ops)")
	ckptDelta := flag.Float64("ckpt-delta", 0, "campaign: checkpoint cost in seconds, analytic and measured ccr (0 = 5% of fault-free wall)")
	ckptRestart := flag.Float64("ckpt-restart", 0, "campaign: restart cost in seconds, analytic and measured ccr (0 = ckpt-delta)")
	ckptTau := flag.Float64("ckpt-tau", 0, "campaign: ccr checkpoint interval in seconds (0 = Daly's optimal interval per point)")
	ft := flag.String("ft", "replication", "campaign: fault-tolerance sides to measure — 'replication' (the -modes grid) or 'ccr' (adds a measured checkpoint/restart series at the native budget next to it)")
	budget := flag.Int("budget", 0, "explore: global adaptive trial budget (0 = default 4000)")
	round := flag.Int("round", 0, "explore: trials per point per allocation round (0 = default 10)")
	targetCI := flag.Float64("target-ci", 0, "explore: refinement target — widest acceptable relative CI95 per point (0 = default 0.05)")
	bracketRatio := flag.Float64("bracket-ratio", 0, "explore: crossover bisection stops when bracket hi/lo reaches this ratio (0 = default 1.5)")
	tauTraces := flag.Int("tau-traces", 0, "explore: failure traces per optimal-tau objective evaluation (0 = default 24)")
	storeDir := flag.String("store", "", "back the run with a persistent result store in this directory (content-addressed cache; see the package docs)")
	shardFlag := flag.String("shard", "", "with -store: populate only shard i/N of the run (e.g. 0/3) and report a summary instead of results")
	progress := flag.Duration("progress", 0, "print a progress heartbeat to stderr at this interval (e.g. 2s; 0 = off)")
	flag.CommandLine.Parse(args)
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if *workers > 0 {
		// The sweep pool sizes itself from GOMAXPROCS, so bounding it here
		// covers figure mode (whose sweeps run inside RunFigure) too.
		runtime.GOMAXPROCS(*workers)
	}

	if *list {
		listRegistries(os.Stdout)
		return
	}

	if *modeFlag != "campaign" && *modeFlag != "explore" {
		for _, flagName := range []string{"mtbf", "horizon", "ckpt-delta", "ckpt-restart", "ckpt-tau", "ft"} {
			if setFlags[flagName] {
				fail("-%s requires -mode campaign or -mode explore", flagName)
			}
		}
	}
	if *modeFlag != "campaign" && *modeFlag != "jobstream" {
		if setFlags["trials"] {
			fail("-trials requires -mode campaign or -mode jobstream (explore allocates trials from -budget)")
		}
		if *modeFlag != "explore" && setFlags["seed"] {
			fail("-seed requires -mode campaign, explore or jobstream")
		}
	}
	if *modeFlag != "explore" {
		for _, flagName := range []string{"budget", "round", "target-ci", "bracket-ratio", "tau-traces"} {
			if setFlags[flagName] {
				fail("-%s requires -mode explore", flagName)
			}
		}
	}
	measureCCR := false
	switch *ft {
	case "replication":
	case "ccr", "ccr,replication", "replication,ccr":
		measureCCR = true
	default:
		fail("unknown -ft %q (replication | ccr)", *ft)
	}

	ccfg := campaign.Config{
		Trials: *trials, Seed: *seed, Workers: *workers,
		Horizon:   sim.Seconds(*horizon),
		CkptDelta: *ckptDelta, CkptRestart: *ckptRestart, CkptTau: *ckptTau,
	}
	ecfg := explore.Config{
		Budget: *budget, Round: *round, TargetCI: *targetCI,
		BracketRatio: *bracketRatio, TauTraces: *tauTraces,
		Seed: *seed, Workers: *workers,
		Horizon:   sim.Seconds(*horizon),
		CkptDelta: *ckptDelta, CkptRestart: *ckptRestart, CkptTau: *ckptTau,
	}
	// Jobstream defaults differ: unset -trials means the subsystem's own
	// default, and an unset -seed defers to the workload's seed.
	jcfg := jobstream.Config{Workers: *workers}
	if setFlags["trials"] {
		jcfg.Trials = *trials
	}
	if setFlags["seed"] {
		jcfg.Seed = *seed
	}

	sctx := storeCtx{merge: mergeMode}
	if mergeMode && *storeDir == "" {
		fail("merge needs a -store directory")
	}
	if *shardFlag != "" {
		if mergeMode {
			fail("merge runs the whole grid; -shard only applies to populate runs")
		}
		if *modeFlag == "explore" {
			fail("-shard does not apply to -mode explore: the adaptive allocation is a single sequential decision process (share work through -store instead)")
		}
		if *storeDir == "" {
			fail("-shard needs a -store directory")
		}
		sh, err := store.ParseShard(*shardFlag)
		if err != nil {
			fail("%v", err)
		}
		sctx.shard = sh
	}
	if *storeDir != "" {
		if *figures != "" {
			fail("-store does not apply to -figures mode (run the figure through a -spec file)")
		}
		if *validate {
			fail("-store conflicts with -validate: nothing runs")
		}
		label := "run"
		if sctx.shard.Active() {
			label = sctx.shard.String()
		} else if mergeMode {
			label = "merge"
		}
		st, err := store.Open(*storeDir, label)
		if err != nil {
			fail("%v", err)
		}
		sctx.st = st
	}

	if *progress > 0 {
		// Heartbeat: simulation units done/planned so far, plus the store's
		// running hit/miss counters when one is open. Dies with the process.
		go func() {
			t := time.NewTicker(*progress)
			defer t.Stop()
			for range t.C {
				done, total := experiments.Progress.Snapshot()
				line := fmt.Sprintf("sweep: progress %d/%d units", done, total)
				if sctx.st != nil {
					s := sctx.st.Stats()
					line += fmt.Sprintf("; store hits=%d misses=%d", s.Hits, s.Misses)
				}
				if status := experiments.Progress.Status(); status != "" {
					line += "; " + status
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}()
	}

	switch {
	case *validate && *specFile == "":
		fail("-validate needs a -spec file")
	case *specFile != "":
		for _, flagName := range []string{"figures", "app", "modes", "procs", "degrees",
			"iters", "tasks", "net", "machine", "mtbf", "ft"} {
			if setFlags[flagName] {
				fail("-%s conflicts with -spec: the scenario file is the whole grid", flagName)
			}
		}
		f, err := scenario.Load(*specFile)
		if err != nil {
			fail("%v", err)
		}
		if *validate {
			validateSpec(f)
			return
		}
		if f.Workload != nil && *modeFlag != "jobstream" {
			fail("%s is a workload file: run it with -mode jobstream", *specFile)
		}
		switch *modeFlag {
		case "":
			if err := runSpecFile(os.Stdout, f, *workers, *jsonOut, sctx); err != nil {
				fail("%v", err)
			}
		case "campaign":
			if err := runCampaignSpec(os.Stdout, f, ccfg, *jsonOut, sctx); err != nil {
				fail("%v", err)
			}
		case "explore":
			if err := runExploreSpec(os.Stdout, f, ecfg, *jsonOut, sctx); err != nil {
				fail("%v", err)
			}
		case "jobstream":
			if f.Workload == nil {
				fail("-mode jobstream needs a workload file (%s has no workload section)", *specFile)
			}
			if err := runJobStream(os.Stdout, f, jcfg, *jsonOut, sctx); err != nil {
				fail("%v", err)
			}
		default:
			fail("unknown -mode %q (campaign | explore | jobstream)", *modeFlag)
		}
	case *modeFlag == "jobstream":
		fail("-mode jobstream needs a -spec workload file")
	case *modeFlag == "campaign":
		if *figures != "" {
			fail("-mode campaign uses the -app grid, not -figures")
		}
		if *app == "" {
			fail("-mode campaign needs an -app grid or a -spec file")
		}
		modes := *modesFlag
		if !setFlags["modes"] {
			modes = "classic,intra" // campaigns need replicas to crash
		}
		scs, err := campaignGrid(*app, modes, *procsFlag, *degreesFlag, *iters, *tasks,
			*netName, *machineName, *mtbfFlag, measureCCR)
		if err != nil {
			fail("%v", err)
		}
		if err := runCampaign(os.Stdout, ccfg, scs, *netName, *machineName, *jsonOut, sctx); err != nil {
			fail("%v", err)
		}
	case *modeFlag == "explore":
		if *figures != "" {
			fail("-mode explore uses the -app grid, not -figures")
		}
		if *app == "" {
			fail("-mode explore needs an -app grid or a -spec file")
		}
		modes := *modesFlag
		if !setFlags["modes"] {
			modes = "classic,intra"
		}
		scs, err := campaignGrid(*app, modes, *procsFlag, *degreesFlag, *iters, *tasks,
			*netName, *machineName, *mtbfFlag, measureCCR)
		if err != nil {
			fail("%v", err)
		}
		if err := runExplore(os.Stdout, ecfg, scs, *netName, *machineName, *jsonOut, sctx); err != nil {
			fail("%v", err)
		}
	case *modeFlag != "":
		fail("unknown -mode %q (campaign | explore | jobstream)", *modeFlag)
	case *figures != "" && *app != "":
		fail("use either -figures or -app, not both")
	case *figures != "":
		for _, gridOnly := range []string{"modes", "degrees", "tasks", "net", "machine"} {
			if setFlags[gridOnly] {
				fail("-%s only applies to grid mode (-app); figures run on their paper platform", gridOnly)
			}
		}
		procsOverride := ""
		if setFlags["procs"] {
			procsOverride = *procsFlag
		}
		runFigures(*figures, procsOverride, *iters, *jsonOut)
	case *app != "":
		g := gridFromFlags(*app, *modesFlag, *procsFlag, *degreesFlag, *iters, *tasks, *netName, *machineName)
		if err := runGrid(os.Stdout, g, *workers, *jsonOut, sctx); err != nil {
			fail("%v", err)
		}
	default:
		fail("nothing to do: pass -figures, -app or -spec (see -h and -list)")
	}

	if sctx.st != nil {
		if mergeMode {
			// The merge pass leaves one canonical sorted shard behind.
			if err := sctx.st.Compact(); err != nil {
				fail("%v", err)
			}
		}
		stats := sctx.st.Stats()
		if err := sctx.st.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "sweep: store %s: %s\n", *storeDir, stats.String())
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	os.Exit(2)
}

// listRegistries enumerates every registry the scenario layer knows about.
func listRegistries(w io.Writer) {
	fmt.Fprintln(w, "apps:")
	for _, e := range scenario.Apps() {
		fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Description)
	}
	fmt.Fprintln(w, "figures:")
	for _, id := range experiments.FigureIDs {
		fmt.Fprintf(w, "  %-12s %s\n", id, experiments.FigureDescriptions[id])
	}
	fmt.Fprintf(w, "nets:         %s\n", strings.Join(simnet.NetNames(), " | "))
	fmt.Fprintf(w, "machines:     %s\n", strings.Join(perf.MachineNames(), " | "))
	fmt.Fprintln(w, "jobstream schedulers:")
	for _, e := range jobstream.SchedulerList() {
		fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Description)
	}
	fmt.Fprintln(w, "jobstream policies:")
	for _, e := range jobstream.PolicyList() {
		fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Description)
	}
}

func validateSpec(f *scenario.File) {
	if f.Workload != nil {
		w := f.Workload
		if err := w.Validate(); err != nil {
			fail("%v", err)
		}
		if err := jobstream.CheckNames(w); err != nil {
			fail("%v", err)
		}
		fmt.Printf("ok: workload: %d rates × %d schedulers × %d policies, %d jobs/trial on %d nodes\n",
			len(w.Rates), len(w.Schedulers), len(w.Policies), w.Jobs, w.Nodes)
		return
	}
	scs, err := f.Expand()
	if err != nil {
		fail("%v", err)
	}
	if f.Figure != "" {
		if _, err := experiments.FigureByID(f.Figure); err != nil {
			fail("%v", err)
		}
	}
	fmt.Printf("ok: %d scenarios\n", len(scs))
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fail("bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fail("bad float list %q", s)
		}
		out = append(out, v)
	}
	return out
}

func parseModes(s string) []scenario.Mode {
	var out []scenario.Mode
	for _, f := range strings.Split(s, ",") {
		m, err := scenario.ParseMode(strings.TrimSpace(f))
		if err != nil {
			fail("%v", err)
		}
		out = append(out, m)
	}
	return out
}

// runFigures regenerates the selected paper figures (each internally a
// parallel sweep) and prints them as text or one JSON array.
func runFigures(sel, procsFlag string, iters int, jsonOut bool) {
	ids := strings.Split(sel, ",")
	if sel == "all" {
		ids = experiments.FigureIDs
	}
	procs := 0
	if procsFlag != "" {
		// A single explicit -procs overrides the paper scale.
		vals := parseInts(procsFlag)
		if len(vals) != 1 {
			fail("figure mode takes a single -procs value")
		}
		procs = vals[0]
	}
	var tables []*experiments.Table
	for _, id := range ids {
		t, err := experiments.RunFigure(strings.TrimSpace(id), procs, iters)
		if err != nil {
			fail("%s: %v", id, err)
		}
		tables = append(tables, t)
	}
	if jsonOut {
		emitJSON(os.Stdout, tables)
		return
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
}

// gridFromFlags is the declarative form of the grid flags: the same
// scenario.Grid a scenario file would carry.
func gridFromFlags(apps, modesFlag, procsFlag, degreesFlag string, iters, tasks int,
	netName, machineName string) scenario.Grid {
	return scenario.Grid{
		Apps:    splitList(apps),
		Modes:   parseModes(modesFlag),
		Procs:   parseInts(procsFlag),
		Degrees: parseInts(degreesFlag),
		Nets:    []string{netName}, Machines: []string{machineName},
		Iters: iters, Tasks: tasks,
	}
}

// runGrid expands the grid, sweeps it, and reports one row per point with
// efficiency against the native run at the same physical budget where the
// grid contains one. Scenario files carrying a grid go through the very
// same path, so flag-built and file-built grids produce byte-identical
// output.
func runGrid(w io.Writer, g scenario.Grid, workers int, jsonOut bool, sctx storeCtx) error {
	scs, err := g.Expand()
	if err != nil {
		return err
	}
	return runScenarios(w, "sweep", strings.Join(g.Apps, ","), scs, workers, jsonOut, sctx)
}

// sweepScenarios sweeps a scenario list through the store. A shard run
// simulates only the points it owns and reports the populate summary
// instead of results (done): the merge run emits them.
func sweepScenarios(w io.Writer, scs []scenario.Scenario, workers int, jsonOut bool, sctx storeCtx) (res []experiments.Result, done bool, err error) {
	specs, err := experiments.SpecsFor(scs)
	if err != nil {
		return nil, false, err
	}
	res, _, err = experiments.PopulateStore(workers, sctx.st, sctx.shard, specs)
	if err != nil || !sctx.shard.Active() {
		return res, false, err
	}
	reportShard(w, sctx, jsonOut)
	return nil, true, nil
}

// reportShard prints a populate run's one summary, whichever driver ran:
// the shard and the store traffic it caused.
func reportShard(w io.Writer, sctx storeCtx, jsonOut bool) {
	s := sctx.st.Stats()
	if jsonOut {
		emitJSON(w, struct {
			Shard string `json:"shard"`
			store.Stats
		}{sctx.shard.String(), s})
		return
	}
	fmt.Fprintf(w, "shard %s: %s\n", sctx.shard, s)
}

// runScenarios sweeps any scenario list and reports it under the one
// {net, machine, results} envelope, with platform labels derived from the
// scenarios themselves.
func runScenarios(w io.Writer, id, label string, scs []scenario.Scenario, workers int, jsonOut bool, sctx storeCtx) error {
	results, done, err := sweepScenarios(w, scs, workers, jsonOut, sctx)
	if err != nil || done {
		return err
	}
	netLabel, machineLabel := scenario.PlatformLabels(scs)
	if jsonOut {
		emitJSON(w, struct {
			Net     string               `json:"net"`
			Machine string               `json:"machine"`
			Results []experiments.Result `json:"results"`
		}{netLabel, machineLabel, results})
		return nil
	}
	title := fmt.Sprintf("%s on %s / %s", label, netLabel, machineLabel)
	fmt.Fprintln(w, scenarioTable(id, title, scs, results).String())
	return nil
}

// baselineGroup keys the native-baseline lookup: scenarios of one app on
// one platform with the same resource budget compare against each other.
// Platform keys are normalized ("" and the default's explicit name key
// together) and inline custom models key by content.
func baselineGroup(sc scenario.Scenario) string {
	budget := sc.Logical
	if ent, err := scenario.AppByName(sc.App); err == nil && ent.WeakScaling {
		budget = sc.PhysProcs()
	}
	net := scenario.PlatformLabel(sc.Net, simnet.DefaultNetName)
	if sc.NetConfig != nil {
		net = "custom:" + string(scenario.MustRaw(sc.NetConfig))
	}
	machine := scenario.PlatformLabel(sc.Machine, perf.DefaultMachineName)
	if sc.MachineConfig != nil {
		machine = "custom:" + string(scenario.MustRaw(sc.MachineConfig))
	}
	return fmt.Sprintf("%s|%s|%s|%d", sc.App, net, machine, budget)
}

// scenarioTable renders any scenario list's results with the grid-mode
// columns.
func scenarioTable(id, title string, scs []scenario.Scenario, results []experiments.Result) *experiments.Table {
	baseline := map[string]*experiments.Measure{}
	for i, r := range results {
		if scs[i].Mode == scenario.Native {
			baseline[baselineGroup(scs[i])] = r.Measure
		}
	}
	t := &experiments.Table{
		ID:    id,
		Title: title,
		Header: []string{"point", "mode", "logical", "phys", "time (s)",
			"upd wait (s)", "efficiency", "memo"},
	}
	for i, r := range results {
		eff := "-"
		if native := baseline[baselineGroup(scs[i])]; native != nil {
			eff = fmt.Sprintf("%.2f", experiments.Efficiency(native, r.Measure))
		}
		memo := ""
		if r.Memoized {
			memo = "hit"
		}
		t.AddRow(r.Name, r.Mode, fmt.Sprintf("%d", r.Logical),
			fmt.Sprintf("%d", r.PhysProcs),
			fmt.Sprintf("%.3f", r.AppSeconds),
			fmt.Sprintf("%.3f", r.UpdateWaitSeconds),
			eff, memo)
	}
	t.Note("efficiency is resource-normalized vs the native run of the same point; '-' when the grid has no native")
	return t
}

// runSpecFile runs a loaded scenario file: a figure reproduction when the
// file binds one, the shared grid path for pure grid files, and a generic
// scenario sweep otherwise.
func runSpecFile(w io.Writer, f *scenario.File, workers int, jsonOut bool, sctx storeCtx) error {
	if f.Figure != "" {
		scs, err := f.Expand()
		if err != nil {
			return err
		}
		res, done, err := sweepScenarios(w, scs, workers, jsonOut, sctx)
		if err != nil || done {
			return err
		}
		t, err := experiments.RenderFigure(f.Figure, scs, res)
		if err != nil {
			return err
		}
		if jsonOut {
			emitJSON(w, []*experiments.Table{t})
			return nil
		}
		fmt.Fprintln(w, t.String())
		return nil
	}
	if f.Grid != nil && len(f.Scenarios) == 0 {
		return runGrid(w, *f.Grid, workers, jsonOut, sctx)
	}
	scs, err := f.Expand()
	if err != nil {
		return err
	}
	label := f.Name
	if label == "" {
		label = "scenario file"
	}
	return runScenarios(w, "spec", label, scs, workers, jsonOut, sctx)
}

// campaignGrid builds the campaign scenario grid from the grid flags and
// the MTBF axis, using each app's registered paper protocol. With
// measureCCR, every (app, procs) point additionally gets a measured
// coordinated checkpoint/restart series over the same MTBF axis at the
// native budget — the paper's Fig. 1 comparison. For weak-scaling apps
// both sides occupy the same -procs physical budget; fixed-size apps
// keep the grid convention (replicated points add replica resources,
// phys = procs×degree) and rely on resource-normalized efficiency.
func campaignGrid(apps, modesFlag, procsFlag, degreesFlag string, iters, tasks int,
	netName, machineName, mtbfFlag string, measureCCR bool) ([]campaign.Scenario, error) {
	modes := parseModes(modesFlag)
	procs := parseInts(procsFlag)
	degrees := parseInts(degreesFlag)
	mtbfs := parseFloats(mtbfFlag)

	var out []campaign.Scenario
	for _, appName := range splitList(apps) {
		ent, err := scenario.AppByName(appName)
		if err != nil {
			return nil, err
		}
		if ent.Paper == nil {
			return nil, fmt.Errorf("app %q has no paper grid binding", appName)
		}
		for _, p := range procs {
			if measureCCR {
				// The ccr series runs the app unreplicated on the full
				// physical budget; checkpoint parameters come from the
				// -ckpt-* flags (campaign.Config) or their defaults.
				for _, m := range mtbfs {
					out = append(out, campaign.Scenario{
						MTBF: sim.Seconds(m),
						Point: scenario.Scenario{
							Name: fmt.Sprintf("%s/ccr/p%d/mtbf%g", appName, p, m),
							App:  appName, Config: scenario.MustRaw(ent.Paper(iters, tasks)),
							Mode: scenario.CCR, Logical: p,
							Net: netName, Machine: machineName,
						},
					})
				}
			}
			for _, mode := range modes {
				if !mode.Replicated() {
					return nil, fmt.Errorf("campaign mode %s has no replicas to crash (use classic and/or intra; -ft ccr adds the checkpoint/restart side)", mode)
				}
				for _, d := range degrees {
					for _, m := range mtbfs {
						logical := p
						cfg := ent.Paper(iters, tasks)
						if ent.GrowPerDegree != nil {
							ent.GrowPerDegree(cfg, d)
						}
						sc := campaign.Scenario{MTBF: sim.Seconds(m)}
						if ent.WeakScaling {
							if p%d != 0 {
								return nil, fmt.Errorf("-procs %d is not divisible by degree %d", p, d)
							}
							logical = p / d
							// The native reference runs the full physical
							// budget on the ungrown per-rank problem.
							sc.Native = &scenario.Scenario{
								App: appName, Config: scenario.MustRaw(ent.Paper(iters, tasks)),
								Mode: scenario.Native, Logical: p,
								Net: netName, Machine: machineName,
							}
						}
						if logical < 1 {
							return nil, fmt.Errorf("%d processes cannot host degree %d replication", p, d)
						}
						sc.Point = scenario.Scenario{
							Name: fmt.Sprintf("%s/%s/p%d/d%d/mtbf%g", appName, mode, p, d, m),
							App:  appName, Config: scenario.MustRaw(cfg),
							Mode: mode, Logical: logical, Degree: d,
							Net: netName, Machine: machineName,
						}
						out = append(out, sc)
					}
				}
			}
		}
	}
	return out, nil
}

// runCampaign executes the campaign grid and reports the aggregates. With
// an active shard it runs campaign.Populate instead — only the owned
// trials are simulated, mergeable per-scenario aggregates land in the
// store, and the report is the populate summary. The merge pass
// cross-checks every complete stored shard scheme against the pooled
// statistics before reporting.
func runCampaign(w io.Writer, cfg campaign.Config, scs []campaign.Scenario,
	netLabel, machineLabel string, jsonOut bool, sctx storeCtx) error {
	cfg.Store = sctx.st
	if sctx.shard.Active() {
		if _, err := campaign.Populate(cfg, scs, sctx.shard); err != nil {
			return err
		}
		reportShard(w, sctx, jsonOut)
		return nil
	}
	res, err := campaign.Run(cfg, scs)
	if err != nil {
		return err
	}
	if sctx.merge {
		verified, err := campaign.VerifyStoredAggregates(cfg, scs, res)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: campaign aggregates verified across %d shard scheme(s)\n", verified)
	}
	if jsonOut {
		emitJSON(w, struct {
			Net     string `json:"net"`
			Machine string `json:"machine"`
			*campaign.Result
		}{netLabel, machineLabel, res})
		return nil
	}
	fmt.Fprintln(w, res.Table().String())
	return nil
}

// runJobStream runs a workload scenario file through the jobstream
// subsystem. With an active shard it populates the store with the owned
// cells instead and reports the populate summary; a merge (or any run
// over a warm store) serves every cell from the store, so its output is
// byte-identical to a cold single-process run.
func runJobStream(w io.Writer, f *scenario.File, cfg jobstream.Config, jsonOut bool, sctx storeCtx) error {
	cfg.Store = sctx.st
	if sctx.shard.Active() {
		if _, err := jobstream.Populate(cfg, f.Workload, sctx.shard); err != nil {
			return err
		}
		reportShard(w, sctx, jsonOut)
		return nil
	}
	res, err := jobstream.Run(cfg, f.Workload)
	if err != nil {
		return err
	}
	res.Name = f.Name
	if jsonOut {
		emitJSON(w, res)
		return nil
	}
	fmt.Fprintln(w, res.Table(f.Workload.SlowdownBound()).String())
	return nil
}

// runCampaignSpec runs a scenario file whose points carry MTBF fault
// models as a campaign.
func runCampaignSpec(w io.Writer, f *scenario.File, cfg campaign.Config, jsonOut bool, sctx storeCtx) error {
	scs, err := f.Expand()
	if err != nil {
		return err
	}
	camp := make([]campaign.Scenario, len(scs))
	for i, sc := range scs {
		camp[i], err = campaign.FromScenario(sc)
		if err != nil {
			return err
		}
	}
	netLabel, machineLabel := scenario.PlatformLabels(scs)
	return runCampaign(w, cfg, camp, netLabel, machineLabel, jsonOut, sctx)
}

// runExplore drives the adaptive explorer over a campaign grid and reports
// the refined points, measured crossover brackets and tau searches. The
// stdout report is a pure function of (config, grid) — store-backed,
// merge and any worker count all emit identical bytes; store verification
// traffic goes to stderr.
func runExplore(w io.Writer, cfg explore.Config, scs []campaign.Scenario,
	netLabel, machineLabel string, jsonOut bool, sctx storeCtx) error {
	cfg.Store = sctx.st
	res, err := explore.Run(cfg, scs)
	if err != nil {
		return err
	}
	if sctx.st != nil {
		fmt.Fprintf(os.Stderr, "sweep: explore records byte-verified against store: %d\n", res.StoreVerified())
	}
	if jsonOut {
		emitJSON(w, struct {
			Net     string `json:"net"`
			Machine string `json:"machine"`
			*explore.Result
		}{netLabel, machineLabel, res})
		return nil
	}
	fmt.Fprintln(w, res.Table().String())
	return nil
}

// runExploreSpec runs a scenario file's MTBF-carrying points adaptively.
func runExploreSpec(w io.Writer, f *scenario.File, cfg explore.Config, jsonOut bool, sctx storeCtx) error {
	scs, err := f.Expand()
	if err != nil {
		return err
	}
	camp := make([]campaign.Scenario, len(scs))
	for i, sc := range scs {
		camp[i], err = campaign.FromScenario(sc)
		if err != nil {
			return err
		}
	}
	netLabel, machineLabel := scenario.PlatformLabels(scs)
	return runExplore(w, cfg, camp, netLabel, machineLabel, jsonOut, sctx)
}

func emitJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}
