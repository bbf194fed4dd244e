// Package jobstream runs the cluster as a service under open load: a
// seeded Poisson load generator submits jobs (each a registered app at a
// requested scale) to a shared cluster, pluggable schedulers (FCFS, EASY
// backfill, k-choices) place them side by side on identical arrival
// streams, and a per-job fault-tolerance policy decides — from the current
// MTBF and spare capacity — whether each job runs native, under degree-2
// process replication, or under coordinated checkpoint/restart, while
// node failures keep arriving from the fault layer's renewal MTBF model.
//
// This reframes the paper's SS-II question as an online policy: should a
// scheduler spend spare nodes on replication degree or on checkpoint
// interval? Jobs execute through the existing sweep machinery — a placed
// job is a Spec-shaped simulation whose measured makespan feeds its
// completion back into the stream — and every (rate, scheduler, policy)
// cell reports throughput, bounded slowdown (mean and P95), utilization
// and goodput, aggregated over seeded trials with 95% confidence
// intervals.
//
// The determinism contract is the repository's usual one: a run is
// byte-identical at any worker count, cells persist in the result store
// under content-addressed keys (a warm rerun simulates nothing), and
// Populate partitions cells across shards by index so N processes build
// the store cooperatively.
package jobstream

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Config are the run knobs orthogonal to the workload itself.
type Config struct {
	Trials  int          // seeded trials per (rate, scheduler, policy) cell (0 = 5)
	Seed    int64        // master seed (0 = the workload's own, then 1)
	Workers int          // cell/simulation workers (0 = GOMAXPROCS)
	Store   *store.Store // optional persistent cell/result cache
}

// DefaultTrials is the trial count when Config.Trials is zero.
const DefaultTrials = 5

func (cfg Config) trials() int {
	if cfg.Trials <= 0 {
		return DefaultTrials
	}
	return cfg.Trials
}

func (cfg Config) seed(w *scenario.Workload) int64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	if w.Seed != 0 {
		return w.Seed
	}
	return 1
}

// cell is one enumerated simulation cell. Enumeration order — rate axis,
// then scheduler, then policy, then trial — is the canonical cell index
// every shard derives identically.
type cell struct {
	rate      float64
	rateIdx   int
	scheduler string
	policy    string
	trial     int
	group     int // index into the result's group list
}

// enumerate lists the run's cells and its (rate, scheduler, policy)
// groups in canonical order.
func enumerate(w *scenario.Workload, trials int) ([]cell, int) {
	groups := 0
	var cells []cell
	for ri, rate := range w.Rates {
		for _, s := range w.Schedulers {
			for _, p := range w.Policies {
				for t := 0; t < trials; t++ {
					cells = append(cells, cell{
						rate: rate, rateIdx: ri, scheduler: s, policy: p,
						trial: t, group: groups,
					})
				}
				groups++
			}
		}
	}
	return cells, groups
}

// Group is the aggregated outcome of one (rate, scheduler, policy) cell
// across the run's trials.
type Group struct {
	RateJobsPerSec float64 `json:"rate_jobs_per_sec"`
	Scheduler      string  `json:"scheduler"`
	Policy         string  `json:"policy"`
	Trials         int     `json:"trials"`

	// Job counts, summed over trials.
	Jobs       int `json:"jobs"`
	Completed  int `json:"completed"`
	Failed     int `json:"failed"`
	Native     int `json:"jobs_native"`
	Replicated int `json:"jobs_replicated"`
	CCR        int `json:"jobs_ccr"`

	Throughput campaign.Stat `json:"throughput_jobs_per_sec"`
	BSLD       campaign.Stat `json:"bounded_slowdown"`
	BSLDP95    campaign.Stat `json:"bounded_slowdown_p95"`
	Wait       campaign.Stat `json:"wait_seconds"`
	Util       campaign.Stat `json:"utilization"`
	Goodput    campaign.Stat `json:"goodput"`
}

// Result is one workload's full side-by-side comparison.
type Result struct {
	Name        string  `json:"name,omitempty"`
	Nodes       int     `json:"nodes"`
	Jobs        int     `json:"jobs"`
	Trials      int     `json:"trials"`
	Seed        int64   `json:"seed"`
	MTBFSeconds float64 `json:"mtbf_seconds"`
	Groups      []Group `json:"groups"`
}

// prepare validates the workload and resolves everything cells share:
// the effective seed, the canonical cell list, the class contexts (their
// reference simulations run here, through the store when one is set) and
// the per-cell store keys.
func prepare(cfg Config, w *scenario.Workload, r *memoRunner) (cells []cell, groups int, seed int64, classes []classCtx, keys []string, err error) {
	if err = w.Validate(); err != nil {
		return
	}
	if err = CheckNames(w); err != nil {
		return
	}
	seed = cfg.seed(w)
	cells, groups = enumerate(w, cfg.trials())
	classes, err = buildClasses(cfg.Workers, w, r)
	if err != nil {
		return
	}
	streamFPs := make([]string, len(w.Rates))
	for i, rate := range w.Rates {
		if streamFPs[i], err = w.StreamFingerprint(rate); err != nil {
			return
		}
	}
	keys = make([]string, len(cells))
	for i, c := range cells {
		keys[i] = cellKey(streamFPs[c.rateIdx], c.scheduler, c.policy, c.trial, seed)
	}
	return
}

// Run executes the workload: every (rate, scheduler, policy, trial) cell
// through the worker pool — served from the store when warm — and the
// trial aggregates per group. Output is byte-identical at any worker
// count and any store temperature.
func Run(cfg Config, w *scenario.Workload) (*Result, error) {
	return run(cfg, w, store.Shard{})
}

// run is Run over the cells shard sh owns (all of them when inactive):
// cells are claimed by canonical index, and each group aggregates only
// its owned trials.
func run(cfg Config, w *scenario.Workload, sh store.Shard) (*Result, error) {
	runner := newMemoRunner(cfg.Store)
	cells, groups, seed, classes, keys, err := prepare(cfg, w, runner)
	if err != nil {
		return nil, err
	}
	var owned []int
	for i := range cells {
		if sh.Owns(i) {
			owned = append(owned, i)
		}
	}
	wires := make([]cellWire, len(cells))
	errs := make([]error, len(cells))
	experiments.Progress.Plan(len(owned))
	experiments.ForEach(cfg.Workers, len(owned), func(wk *experiments.Worker, k int) {
		defer experiments.Progress.Done()
		i := owned[k]
		c := cells[i]
		wires[i], _, errs[i] = store.GetOrCompute(cfg.Store, cellKind, keys[i], func() (cellWire, error) {
			return runCell(cellParams{
				w: w, rate: c.rate, seed: seed, trial: c.trial,
				scheduler: c.scheduler, policy: c.policy,
				classes: classes, runner: runner,
			}, wk)
		})
	})
	for i, err := range errs {
		if err != nil {
			c := cells[i]
			return nil, fmt.Errorf("jobstream: rate %g %s/%s trial %d: %w", c.rate, c.scheduler, c.policy, c.trial, err)
		}
	}

	res := &Result{
		Nodes: w.Nodes, Jobs: w.Jobs, Trials: cfg.trials(), Seed: seed,
		MTBFSeconds: w.MTBFSeconds, Groups: make([]Group, groups),
	}
	type aggs struct{ thr, bsld, p95, wait, util, good campaign.Agg }
	acc := make([]aggs, groups)
	for _, i := range owned {
		c := cells[i]
		g := &res.Groups[c.group]
		g.RateJobsPerSec, g.Scheduler, g.Policy = c.rate, c.scheduler, c.policy
		g.Trials++
		cw := wires[i]
		g.Jobs += cw.Jobs
		g.Completed += cw.Completed
		g.Failed += cw.Failed
		g.Native += cw.Native
		g.Replicated += cw.Replicated
		g.CCR += cw.CCR
		a := &acc[c.group]
		a.thr.Add(cw.Throughput)
		a.bsld.Add(cw.BSLDMean)
		a.p95.Add(cw.BSLDP95)
		a.wait.Add(cw.WaitMean)
		a.util.Add(cw.Util)
		a.good.Add(cw.Goodput)
	}
	for gi := range res.Groups {
		a := &acc[gi]
		g := &res.Groups[gi]
		g.Throughput = a.thr.Stat()
		g.BSLD = a.bsld.Stat()
		g.BSLDP95 = a.p95.Stat()
		g.Wait = a.wait.Stat()
		g.Util = a.util.Stat()
		g.Goodput = a.good.Stat()
	}
	return res, nil
}

// fmtStat renders a Stat's mean for the table.
func fmtStat(s campaign.Stat, prec int) string {
	return fmt.Sprintf("%.*f", prec, s.Mean)
}

// Table renders the schedulers x FT-policies comparison — the
// beyond-the-paper figure of the jobstream subsystem.
func (r *Result) Table(bound float64) *experiments.Table {
	title := fmt.Sprintf("job stream: %d nodes, %d jobs/trial, %d trials, seed %d", r.Nodes, r.Jobs, r.Trials, r.Seed)
	if r.MTBFSeconds > 0 {
		title += fmt.Sprintf(", node MTBF %gs", r.MTBFSeconds)
	} else {
		title += ", failure-free"
	}
	t := &experiments.Table{
		ID: "jobstream", Title: title,
		Header: []string{"rate (j/s)", "sched", "policy", "done", "failed", "nat/rep/ccr",
			"jobs/s", "±95%", "bsld", "p95", "wait (s)", "util", "goodput"},
	}
	for _, g := range r.Groups {
		t.AddRow(
			fmt.Sprintf("%g", g.RateJobsPerSec), g.Scheduler, g.Policy,
			fmt.Sprintf("%d", g.Completed), fmt.Sprintf("%d", g.Failed),
			fmt.Sprintf("%d/%d/%d", g.Native, g.Replicated, g.CCR),
			fmtStat(g.Throughput, 2), g.Throughput.FormatCI(2),
			fmtStat(g.BSLD, 2), fmtStat(g.BSLDP95, 2),
			fmtStat(g.Wait, 4), fmtStat(g.Util, 3), fmtStat(g.Goodput, 3),
		)
	}
	t.Note("bounded slowdown floors its denominator at %gs; goodput counts completed jobs' native node-seconds against the whole cluster's", bound)
	t.Note("native/replicated/ccr count the per-job fault-tolerance choices; failed jobs hit an unsurvivable failure")
	return t
}
