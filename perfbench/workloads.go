package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/jobstream"
	"repro/internal/scenario"
	"repro/internal/store"
)

// workload is one named input family of the benchmark. setup generates
// the inputs from the seed, then decodes, validates, expands and
// fingerprints them the way the CLIs load a scenario file; the program
// under test only ever sees those generated inputs. tiny selects a small
// size for the package tests.
type workload struct {
	name  string
	setup func(seed int64, tiny bool) (*job, error)
}

// job is a set-up workload.
type job struct {
	// run executes one repetition.
	run func(x *rep) (outcome, error)
	// attributed, when set, stands in for run in the traced run: the same
	// kind of work driven through finer-grained public calls, so that
	// spans can split it.
	attributed func(x *rep) (outcome, error)
}

// outcome is what one repetition produced.
type outcome struct {
	units int    // units of work completed
	out   []byte // normalized output: identical across repetitions, worker counts and tracing
}

// workloads are the benchmark's workloads, in the order BENCHMARK.json
// lists them.
var workloads = []workload{
	{"figures", setupFigures},
	{"campaign", setupCampaign},
	{"jobstream", setupJobstream},
	{"explore", setupExplore},
	{"store", setupStore},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// load round-trips generated inputs through the strict scenario-file
// decoder, the path every user-supplied input takes.
func load(f scenario.File) (*scenario.File, error) {
	b, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", f.Name, err)
	}
	return scenario.Parse(b)
}

// expand validates and expands a decoded file and fingerprints every
// point; generated inputs must be distinct simulations.
func expand(f *scenario.File) ([]scenario.Scenario, error) {
	scs, err := f.Expand()
	if err != nil {
		return nil, err
	}
	seen := map[string]string{}
	for _, sc := range scs {
		fp, err := sc.Fingerprint()
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[fp]; dup {
			return nil, fmt.Errorf("%s: scenarios %q and %q are the same point", f.Name, prev, sc.Name)
		}
		seen[fp] = sc.Name
	}
	return scs, nil
}

// gtcConfig is the GTC problem of the checked-in campaign and explore
// scenario files, inlined so editing those files cannot move the
// benchmark.
var gtcConfig = json.RawMessage(`{"Cells": 64, "PerCell": 25, "Zones": 8, "Steps": 2, "Dt": 0.02, "Scale": 64, "ShiftFrac": 0.05, "AuxBytes": 180, "IntraCharge": true, "IntraPush": true}`)

// campaignInputs generates a GTC p8 modes x per-node-MTBF grid and loads
// it as campaign scenarios.
func campaignInputs(name string, modes []scenario.Mode, mtbfs []float64) ([]campaign.Scenario, error) {
	f := scenario.File{Name: name}
	for _, m := range modes {
		for _, mtbf := range mtbfs {
			f.Scenarios = append(f.Scenarios, scenario.Scenario{
				Name: fmt.Sprintf("gtc/%s/p8/mtbf%g", m.Name(), mtbf),
				App:  "gtc", Config: gtcConfig, Mode: m, Logical: 8,
				Fault: &scenario.FaultSpec{MTBFSeconds: mtbf},
			})
		}
	}
	pf, err := load(f)
	if err != nil {
		return nil, err
	}
	scs, err := expand(pf)
	if err != nil {
		return nil, err
	}
	out := make([]campaign.Scenario, len(scs))
	for i, sc := range scs {
		if out[i], err = campaign.FromScenario(sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setupFigures: every figure and ablation with scenarios, swept as one
// spec list whose order the seed shuffles anew on each repetition. The
// unit is a requested scenario run.
func setupFigures(seed int64, tiny bool) (*job, error) {
	procs, iters := 16, 3
	if tiny {
		procs, iters = 4, 1
	}
	type figure struct {
		id  string
		scs []scenario.Scenario
		at  int // first spec index
	}
	var figs []figure
	var specs []experiments.Spec
	for _, id := range experiments.FigureIDs {
		fig, err := experiments.FigureByID(id)
		if err != nil {
			return nil, err
		}
		if fig.Scenarios == nil {
			continue // analytic table: nothing to simulate
		}
		gen, err := fig.Scenarios(procs, iters)
		if err != nil {
			return nil, err
		}
		f, err := load(scenario.File{Name: id, Figure: id, Scenarios: gen})
		if err != nil {
			return nil, err
		}
		scs, err := expand(f)
		if err != nil {
			return nil, err
		}
		ss, err := experiments.SpecsFor(scs)
		if err != nil {
			return nil, err
		}
		figs = append(figs, figure{id: id, scs: scs, at: len(specs)})
		specs = append(specs, ss...)
	}
	rng := rand.New(rand.NewSource(seed))
	run := func(x *rep) (outcome, error) {
		perm := rng.Perm(len(specs))
		shuffled := make([]experiments.Spec, len(specs))
		for i, p := range perm {
			shuffled[i] = specs[p]
		}
		var res []experiments.Result
		if err := x.span("experiments.sweep", func() (err error) {
			res, err = experiments.SweepN(x.workers, shuffled)
			return err
		}); err != nil {
			return outcome{}, err
		}
		x.sweep(res)
		ordered := make([]experiments.Result, len(res))
		for i, p := range perm {
			ordered[p] = res[i]
		}
		var b bytes.Buffer
		for _, f := range figs {
			var t *experiments.Table
			if err := x.span("experiments.render", func() (err error) {
				t, err = experiments.RenderFigure(f.id, f.scs, ordered[f.at:f.at+len(f.scs)])
				return err
			}); err != nil {
				return outcome{}, err
			}
			b.WriteString(t.String())
		}
		// Which duplicate the memo serves, and how long a simulation took,
		// depend on the shuffle and the machine, not on the results.
		for _, r := range ordered {
			r.Memoized, r.ElapsedMS = false, 0
			line, err := json.Marshal(r)
			if err != nil {
				return outcome{}, err
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		return outcome{units: len(specs), out: b.Bytes()}, nil
	}
	return &job{run: run}, nil
}

// setupCampaign: the ccr-vs-replication grid (GTC p8; ccr, classic and
// intra; per-node MTBF 0.02, 0.1 and 0.5 s) as one campaign.Run with
// master seed = seed. The unit is a trial.
func setupCampaign(seed int64, tiny bool) (*job, error) {
	trials := 200
	if tiny {
		trials = 3
	}
	scs, err := campaignInputs("campaign-ccr-vs-replication",
		[]scenario.Mode{scenario.CCR, scenario.Classic, scenario.Intra}, []float64{0.02, 0.1, 0.5})
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{Trials: trials, Seed: seed}
	run := func(x *rep) (outcome, error) {
		c := cfg
		c.Workers = x.workers
		res, err := campaign.Run(c, scs)
		if err != nil {
			return outcome{}, err
		}
		for _, s := range res.Scenarios {
			if s.Trials != trials {
				return outcome{}, fmt.Errorf("campaign: scenario %q aggregated %d trials, want %d", s.Name, s.Trials, trials)
			}
		}
		out, err := json.Marshal(res)
		return outcome{units: trials * len(scs), out: out}, err
	}
	attributed := func(x *rep) (outcome, error) { return campaignByPoints(x, cfg, scs) }
	return &job{run: run, attributed: attributed}, nil
}

// pointSummary is the normalized output of one campaign point.
type pointSummary struct {
	Name       string        `json:"name"`
	Trials     int           `json:"trials"`
	Crashes    int           `json:"crashes"`
	Makespan   campaign.Stat `json:"makespan_seconds"`
	Slowdown   campaign.Stat `json:"slowdown"`
	Efficiency campaign.Stat `json:"efficiency"`
}

// campaignByPoints runs the campaign grid through campaign.PreparePoints
// and the Point API, the calls explore makes, so the traced repetition
// can time preparation, failure draws, trace replay, full simulation,
// checkpoint replay and aggregation apart. Point trials are seeded by the
// point's fingerprint rather than its grid position, so the numbers differ
// from campaign.Run's; the untraced runs of this path are its reference.
func campaignByPoints(x *rep, cfg campaign.Config, scs []campaign.Scenario) (outcome, error) {
	cfg.Workers = x.workers
	var pts []*campaign.Point
	if err := x.span("campaign.prepare", func() (err error) {
		pts, err = campaign.PreparePoints(cfg, scs)
		return err
	}); err != nil {
		return outcome{}, err
	}
	// Classic trials replay the recorded op trace; intra trials execute.
	var replay, simulate []experiments.Spec
	at := make([]int, len(pts))
	_ = x.span("fault.draw", func() error {
		for i, p := range pts {
			if p.IsCCR() {
				continue
			}
			list := &simulate
			if p.Scenario.Point.Mode == scenario.Classic {
				list = &replay
			}
			at[i] = len(*list)
			for t := 0; t < cfg.Trials; t++ {
				spec, _ := p.TrialSpec(t)
				*list = append(*list, spec)
			}
		}
		return nil
	})
	var replayRes, simRes []experiments.Result
	if err := x.span("core.replay", func() (err error) {
		replayRes, err = experiments.SweepN(x.workers, replay)
		return err
	}); err != nil {
		return outcome{}, err
	}
	if err := x.span("experiments.sweep", func() (err error) {
		simRes, err = experiments.SweepN(x.workers, simulate)
		return err
	}); err != nil {
		return outcome{}, err
	}
	x.sweep(replayRes)
	x.sweep(simRes)

	walls := make([][]float64, len(pts))
	crashes := make([]int, len(pts))
	ccrTrials := 0
	_ = x.span("ckptsim.replay", func() error {
		for i, p := range pts {
			if !p.IsCCR() {
				continue
			}
			walls[i] = make([]float64, cfg.Trials)
			for t := range walls[i] {
				tr := p.CCRTrial(t)
				walls[i][t] = tr.Makespan
				crashes[i] += tr.Failures
			}
			ccrTrials += cfg.Trials
		}
		return nil
	})
	for i, p := range pts {
		if p.IsCCR() {
			continue
		}
		res := simRes
		if p.Scenario.Point.Mode == scenario.Classic {
			res = replayRes
		}
		walls[i] = make([]float64, cfg.Trials)
		for t := range walls[i] {
			r := res[at[i]+t]
			walls[i][t] = r.WallSeconds
			crashes[i] += r.Crashes
		}
	}

	sums := make([]pointSummary, len(pts))
	_ = x.span("campaign.aggregate", func() error {
		for i, p := range pts {
			var a [3]campaign.Agg // makespan, slowdown, efficiency
			for _, w := range walls[i] {
				mk, sd, eff := p.Metrics(w)
				a[0].Add(mk)
				a[1].Add(sd)
				a[2].Add(eff)
			}
			sums[i] = pointSummary{
				Name: p.Scenario.Point.Name, Trials: len(walls[i]), Crashes: crashes[i],
				Makespan: a[0].Stat(), Slowdown: a[1].Stat(), Efficiency: a[2].Stat(),
			}
		}
		return nil
	})
	units := cfg.Trials * len(pts)
	x.add("fault.draws", float64(units))
	x.add("ckptsim.replays", float64(ccrTrials))
	x.add("campaign.trials", float64(units))
	out, err := json.Marshal(sums)
	return outcome{units: units, out: out}, err
}

// setupJobstream: the jobstream-policies workload (32 nodes, per-node
// MTBF 0.6 s, three job classes, arrival rates 4 and 10 jobs/s) under
// fcfs, easy and kchoices crossed with native, replicate, ccr and
// adaptive, one trial per cell. The unit is a submitted job.
//
// Arrivals and node failures come from the workload's own seed, 11; the
// benchmark seed orders the rate, scheduler and policy axes anew on each
// repetition. The cost is the replicated jobs a failure trace forces to
// re-simulate, a heavy-tailed amount: with the benchmark seed as the
// workload seed (two trials per cell), the run medians of two sets of ten
// seeds spread by 16% and 22% between their quartiles, against 2-15% for
// the other workloads in the same sets.
func setupJobstream(seed int64, tiny bool) (*job, error) {
	jobs := 50
	if tiny {
		jobs = 4
	}
	w := scenario.Workload{
		Nodes: 32, Jobs: jobs, Rates: []float64{4, 10}, MTBFSeconds: 0.6, Seed: 11,
		Mix: []scenario.JobClass{
			{Name: "hpccg-wide", App: "hpccg", Config: json.RawMessage(`{"Iters": 5, "Scale": 64}`), Logical: 8, Weight: 1},
			{Name: "hpccg-small", App: "hpccg", Config: json.RawMessage(`{"Iters": 5, "Scale": 64}`), Logical: 4, Weight: 2},
			{Name: "gtc-small", App: "gtc", Config: json.RawMessage(`{"Steps": 2, "Scale": 512}`), Logical: 2, Weight: 1},
		},
		Schedulers: []string{"fcfs", "easy", "kchoices"},
		Policies:   []string{"native", "replicate", "ccr", "adaptive"},
	}
	f, err := load(scenario.File{Name: "jobstream-policies", Workload: &w})
	if err != nil {
		return nil, err
	}
	wl := f.Workload
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if err := jobstream.CheckNames(wl); err != nil {
		return nil, err
	}
	if _, err := wl.Fingerprint(); err != nil {
		return nil, err
	}
	for _, rate := range wl.Rates {
		if _, err := wl.StreamFingerprint(rate); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	run := func(x *rep) (outcome, error) {
		w := *wl
		w.Rates, w.Schedulers, w.Policies = shuffled(rng, wl.Rates), shuffled(rng, wl.Schedulers), shuffled(rng, wl.Policies)
		var res *jobstream.Result
		if err := x.span("jobstream.run", func() (err error) {
			res, err = jobstream.Run(jobstream.Config{Trials: 1, Workers: x.workers}, &w)
			return err
		}); err != nil {
			return outcome{}, err
		}
		slices.SortFunc(res.Groups, func(a, b jobstream.Group) int {
			return cmp.Or(cmp.Compare(a.RateJobsPerSec, b.RateJobsPerSec),
				cmp.Compare(a.Scheduler, b.Scheduler), cmp.Compare(a.Policy, b.Policy))
		})
		units := 0
		for _, g := range res.Groups {
			if g.Completed+g.Failed != g.Jobs {
				return outcome{}, fmt.Errorf("jobstream: %s/%s at %g jobs/s: %d completed + %d failed != %d jobs",
					g.Scheduler, g.Policy, g.RateJobsPerSec, g.Completed, g.Failed, g.Jobs)
			}
			units += g.Jobs
			x.add("jobstream.jobs", float64(g.Jobs))
			x.add("jobstream.completed", float64(g.Completed))
			x.add("jobstream.failed", float64(g.Failed))
			x.add("jobstream.replicated", float64(g.Replicated))
			x.add("jobstream.ccr", float64(g.CCR))
			x.add("ckptsim.replays", float64(g.CCR))
		}
		out, err := json.Marshal(res)
		return outcome{units: units, out: out}, err
	}
	return &job{run: run}, nil
}

// shuffled returns xs in an order drawn from rng.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := slices.Clone(xs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setupExplore: the adaptive explorer on GTC ccr vs intra at per-node MTBF
// 0.02 and 0.5 s, to a target relative CI of 0.015 and a crossover bracket
// ratio of 1.05, with a budget that never binds. The unit is a trial
// spent.
func setupExplore(seed int64, tiny bool) (*job, error) {
	cfg := explore.Config{Budget: 100000, TargetCI: 0.015, BracketRatio: 1.05, TauTraces: 48, Seed: seed}
	if tiny {
		cfg.TargetCI, cfg.BracketRatio, cfg.TauTraces = 0.3, 2, 2
	}
	scs, err := campaignInputs("explore-crossover",
		[]scenario.Mode{scenario.CCR, scenario.Intra}, []float64{0.02, 0.5})
	if err != nil {
		return nil, err
	}
	run := func(x *rep) (outcome, error) {
		c := cfg
		c.Workers = x.workers
		var res *explore.Result
		if err := x.span("explore.run", func() (err error) {
			res, err = explore.Run(c, scs)
			return err
		}); err != nil {
			return outcome{}, err
		}
		if err := checkCrossovers(res, cfg.BracketRatio); err != nil {
			return outcome{}, err
		}
		x.add("explore.trials_refine", float64(res.SpentRefine))
		x.add("explore.trials_bisect", float64(res.SpentBisect))
		x.add("explore.trials_tau", float64(res.SpentTau))
		x.add("explore.trials_to_crossover", float64(res.SpentRefine+res.SpentBisect))
		x.add("explore.rounds", float64(res.Rounds))
		for _, c := range res.Crossovers {
			x.add("explore.probes", float64(len(c.Probes)))
		}
		x.add("fault.draws", float64(res.Spent))
		x.add("ckptsim.replays", float64(res.SpentTau))
		for _, p := range slices.Concat(res.Points, res.Probes) {
			if p.Mode == scenario.CCR.String() {
				x.add("ckptsim.replays", float64(p.Trials))
			} else {
				x.add("replication.crashes", float64(p.Crashes))
			}
		}
		out, err := json.Marshal(res)
		return outcome{units: res.Spent, out: out}, err
	}
	return &job{run: run}, nil
}

// checkCrossovers accepts an explore result when every ccr-vs-replication
// pairing either narrowed its bracket to the target ratio with separated
// probes, or stopped at a probe whose two sides the measurement could not
// separate.
func checkCrossovers(res *explore.Result, ratio float64) error {
	if len(res.Crossovers) == 0 {
		return fmt.Errorf("explore: no ccr-vs-replication pairing")
	}
	for _, c := range res.Crossovers {
		n := len(c.Probes)
		switch {
		case c.MeasuredNodeMTBFSeconds == 0:
			return fmt.Errorf("explore: %s/%s: the grid shows no crossover to bisect", c.App, c.ReplMode)
		case c.Separated && c.BracketRatio <= ratio:
		case !c.Separated && n > 0 && !c.Probes[n-1].Separated:
		default:
			return fmt.Errorf("explore: %s/%s: bracket ratio %g misses the target %g", c.App, c.ReplMode, c.BracketRatio, ratio)
		}
	}
	return nil
}

// setupStore: GTC classic p8 at per-node MTBF 0.02, 0.1 and 0.5 s. Each
// repetition populates a fresh store in two shards (the write path), then
// merges it as `sweep merge` does (the read path). The unit is a trial.
func setupStore(seed int64, tiny bool) (*job, error) {
	trials := 2000
	if tiny {
		trials = 4
	}
	scs, err := campaignInputs("store-classic",
		[]scenario.Mode{scenario.Classic}, []float64{0.02, 0.1, 0.5})
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{Trials: trials, Seed: seed}
	run := func(x *rep) (outcome, error) { return storeRep(x, cfg, scs) }
	return &job{run: run}, nil
}

func storeRep(x *rep, cfg campaign.Config, scs []campaign.Scenario) (outcome, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	cfg.Workers = x.workers

	if err := x.span("store.populate", func() error {
		for i := 0; i < 2; i++ {
			sh := store.Shard{Index: i, Count: 2}
			st, err := store.Open(dir, sh.String())
			if err != nil {
				return err
			}
			c := cfg
			c.Store = st
			_, perr := campaign.Populate(c, scs, sh)
			x.add("store.puts", float64(st.Stats().Puts))
			if err := st.Close(); perr == nil {
				perr = err
			}
			if perr != nil {
				return perr
			}
		}
		return nil
	}); err != nil {
		return outcome{}, err
	}

	var st *store.Store
	if err := x.span("store.open", func() (err error) {
		st, err = store.Open(dir, "merge")
		return err
	}); err != nil {
		return outcome{}, err
	}
	defer st.Close()
	c := cfg
	c.Store = st
	var res *campaign.Result
	if err := x.span("store.rerun", func() (err error) {
		res, err = campaign.Run(c, scs)
		return err
	}); err != nil {
		return outcome{}, err
	}
	merged := st.Stats()
	if merged.Misses != 0 || merged.Hits == 0 {
		return outcome{}, fmt.Errorf("store: merge missed %d records (hits %d)", merged.Misses, merged.Hits)
	}
	var verified int
	if err := x.span("store.verify", func() (err error) {
		verified, err = campaign.VerifyStoredAggregates(c, scs, res)
		return err
	}); err != nil {
		return outcome{}, err
	}
	if verified < 1 {
		return outcome{}, fmt.Errorf("store: no complete shard scheme to verify")
	}
	if err := x.span("store.compact", st.Compact); err != nil {
		return outcome{}, err
	}
	fi, err := os.Stat(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		return outcome{}, err
	}

	after := st.Stats()
	units := cfg.Trials * len(scs)
	x.add("store.puts", float64(after.Puts))
	x.add("store.hits", float64(merged.Hits))
	x.add("store.misses", float64(merged.Misses))
	x.add("store.dupes", float64(after.Dupes))
	x.add("store.mb", float64(fi.Size())/1e6)
	x.add("store.merge_hit_ratio", float64(merged.Hits)/float64(merged.Hits+merged.Misses))
	x.add("campaign.trials", float64(units))
	// Both populate shards and the merge lay out (and so draw) every trial.
	x.add("fault.draws", float64(3*units))
	for _, s := range res.Scenarios {
		x.add("replication.crashes", float64(s.Crashes.Total))
	}
	out, err := json.Marshal(struct {
		Result   *campaign.Result `json:"result"`
		Verified int              `json:"verified_schemes"`
		Records  int              `json:"records"`
	}{res, verified, after.Records})
	return outcome{units: units, out: out}, err
}
