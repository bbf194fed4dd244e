// Package campaign runs Monte Carlo failure campaigns: many seeded
// replicated simulations per scenario point, with crash schedules drawn
// from an exponential per-replica MTBF (fault.ExponentialDraw), aggregated
// into expected-makespan, workload-efficiency and failure-survival
// statistics with confidence intervals.
//
// A campaign measures both sides of the paper's §II comparison. The
// replicated side crashes replicas mid-run (clamped fault.ExponentialDraw
// schedules) and times the recovered executions. The checkpoint/restart
// side (scenario mode "ccr") measures the competing scheme the same way:
// the scenario's fault-free makespan — one memoized native sweep run — is
// replayed per trial under an unclamped seeded failure trace with periodic
// checkpoints, rollback re-execution and restarts (internal/ckptsim), and
// both measured series are reported next to Daly's analytic prediction,
// including the crossover MTBF found from the measured data next to
// ckpt.CrossoverMTBF.
//
// Every scenario point is a Point whose trials form one stream: trial t
// draws from fault.TrialSeed(PointSeed(seed, point fingerprint), 0, t).
// A fixed campaign runs trials [0, Trials) of every point; the adaptive
// explorer (internal/explore) runs the same streams with its own
// allocations, so both fold identical per-trial values and agree byte for
// byte over equal trial counts. Every replicated trial is one
// experiments.Spec, so campaigns inherit the sweep runner's worker pool,
// content-keyed memo and deterministic ordering: trials whose draw
// contains no crash are simulated once and served from the memo, and the
// aggregate output is byte-identical for any worker count. The ccr trials
// fan out over the same worker count, each a deterministic replay. A
// campaign is reproducible from (seed, scenario grid) alone.
package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/ckptsim"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// Scenario is one point of the campaign grid: a canonical scenario under a
// replicated or checkpoint/restart fault-tolerance mode, subjected to an
// exponential per-replica failure process of mean MTBF. The campaign layer
// is a thin adapter over scenario.Scenario: every reference and trial run
// goes through experiments.SpecFor.
type Scenario struct {
	// Point is the scenario the failures perturb, in its fault-free form
	// (its Fault field must be empty; the campaign draws the schedules).
	// Replicated modes crash replicas inside the simulation; ccr points
	// replay their native makespan under ckptsim.
	Point scenario.Scenario
	// MTBF is the per-replica mean time between failures.
	MTBF sim.Time
	// Horizon overrides Config.Horizon for this scenario (0 = inherit).
	Horizon sim.Time

	// Native optionally overrides the unreplicated reference run used for
	// the resource-normalized efficiency metric. Nil derives it from Point
	// (same app/config/platform in native mode: the Figure 6
	// constant-problem protocol); weak-scaling campaigns (HPCCG, Figure 5)
	// set it to the full physical budget on the ungrown problem.
	Native *scenario.Scenario
}

// FromScenario adapts a scenario-file point carrying an MTBF fault model
// (fault.mtbf_seconds > 0) into a campaign scenario. For weak-scaling apps
// it reconstructs the CLI grid's native reference — the full physical
// budget on the degree-shrunk per-rank problem — so the efficiency
// baseline is identical whether a point came from flags or from a file.
func FromScenario(sc scenario.Scenario) (Scenario, error) {
	if sc.Fault == nil || sc.Fault.MTBFSeconds <= 0 {
		return Scenario{}, fmt.Errorf("campaign: scenario %q has no MTBF fault model", sc.Name)
	}
	if len(sc.Fault.Crashes) > 0 {
		return Scenario{}, fmt.Errorf("campaign: scenario %q mixes explicit crashes with an MTBF", sc.Name)
	}
	out := Scenario{
		MTBF:    sim.Seconds(sc.Fault.MTBFSeconds),
		Horizon: sim.Seconds(sc.Fault.HorizonSeconds),
	}
	sc.Fault = nil
	out.Point = sc
	native, err := weakScalingNative(sc)
	if err != nil {
		return Scenario{}, err
	}
	out.Native = native
	return out, nil
}

// weakScalingNative builds the weak-scaling native reference of a point,
// or nil for fixed-size apps and unreplicated (ccr) points, whose
// reference is the point itself in native mode.
func weakScalingNative(sc scenario.Scenario) (*scenario.Scenario, error) {
	if !sc.Mode.Replicated() {
		return nil, nil
	}
	ent, err := scenario.AppByName(sc.App)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if !ent.WeakScaling || ent.ShrinkPerDegree == nil {
		return nil, nil
	}
	cfg, err := sc.AppConfig()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	d := sc.EffectiveDegree()
	if err := ent.ShrinkPerDegree(cfg, d); err != nil {
		return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
	}
	return &scenario.Scenario{
		App: sc.App, Config: scenario.MustRaw(cfg),
		Mode: scenario.Native, Logical: sc.Logical * d,
		Net: sc.Net, Machine: sc.Machine,
		NetConfig: sc.NetConfig, MachineConfig: sc.MachineConfig,
	}, nil
}

// nativeScenario is the unreplicated reference of the point.
func (sc Scenario) nativeScenario() scenario.Scenario {
	if sc.Native != nil {
		n := *sc.Native
		if n.Name == "" {
			n.Name = sc.Point.Name + "/native"
		}
		return n
	}
	n := sc.Point
	n.Name = sc.Point.Name + "/native"
	n.Mode = scenario.Native
	n.Degree = 0
	n.Intra = nil
	n.Ckpt = nil
	n.Fault = nil
	return n
}

// Config are the campaign-wide knobs.
type Config struct {
	Trials  int   // seeded trials per scenario (0 = default 100)
	Seed    int64 // master seed; each point's trial stream derives via PointSeed
	Workers int   // sweep workers (0 = GOMAXPROCS)

	// Horizon bounds the crash-drawing window — a hard cap for every
	// fault-tolerance side. Zero uses each scenario's measured fault-free
	// wall time (checkpoints included for ccr points), and the defaulted
	// ccr window additionally grows until it covers a failure-stretched
	// makespan, so the failure process covers exactly the execution it
	// perturbs.
	Horizon sim.Time

	// CkptDelta / CkptRestart parameterize the cCR machine — both the
	// analytic comparison and the measured ccr-mode replays — in seconds.
	// Zero defaults delta to 5% of the scenario's fault-free wall time and
	// restart to delta. CkptTau is the ccr replay's checkpoint interval
	// (0 = Daly's optimal interval at each scenario's system MTBF). A
	// scenario's own Ckpt options take precedence over all three.
	CkptDelta   float64
	CkptRestart float64
	CkptTau     float64

	// Store, when non-nil, backs the references and replicated trials with
	// the persistent result cache: points already present are served
	// without simulating, fresh ones are appended (ccr replays are cheap
	// and always recomputed). Each run also appends its per-scenario
	// aggregates as mergeable count/sum/sumsq records under its shard
	// label — 0/1 for Run, i/N for Populate. Those are written, never
	// served: only VerifyStoredAggregates reads them back. The aggregate
	// output is byte-identical with or without a store.
	Store *store.Store
}

// ckptParams resolves the cCR machine parameters of one scenario from the
// scenario's Ckpt options, the campaign config, and the defaults, given
// the measured native wall time W and the system MTBF.
func (cfg Config) ckptParams(sc Scenario, w, sysMTBF float64) ckptsim.Params {
	var o scenario.CkptOptions
	if sc.Point.Ckpt != nil {
		o = *sc.Point.Ckpt
	}
	p := ckptsim.Params{Tau: o.TauSeconds, Delta: o.DeltaSeconds, Restart: o.RestartSeconds}
	if p.Delta == 0 {
		p.Delta = cfg.CkptDelta
	}
	if p.Delta == 0 {
		p.Delta = 0.05 * w
	}
	if p.Restart == 0 {
		p.Restart = cfg.CkptRestart
	}
	if p.Restart == 0 {
		p.Restart = p.Delta
	}
	if p.Tau == 0 {
		p.Tau = cfg.CkptTau
	}
	if p.Tau == 0 {
		p.Tau = ckpt.OptimalInterval(p.Delta, p.Restart, sysMTBF)
	}
	return p
}

// Stat summarizes one metric over a scenario's trials: mean, sample
// standard deviation, 95% confidence half-width (normal approximation),
// and range. With fewer than two samples there is no dispersion estimate:
// CI95 is NaN (JSON null, "-" in tables), never a misleading zero that
// reads as a perfectly tight interval.
type Stat struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// statJSON is the wire form of Stat: ci95 is nullable because NaN has no
// JSON encoding.
type statJSON struct {
	Mean float64  `json:"mean"`
	Std  float64  `json:"std"`
	CI95 *float64 `json:"ci95"`
	Min  float64  `json:"min"`
	Max  float64  `json:"max"`
}

// MarshalJSON encodes an undefined CI95 (fewer than two trials) as null.
func (s Stat) MarshalJSON() ([]byte, error) {
	w := statJSON{Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max}
	if !math.IsNaN(s.CI95) {
		w.CI95 = &s.CI95
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a null ci95 back to NaN.
func (s *Stat) UnmarshalJSON(b []byte) error {
	var w statJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Stat{Mean: w.Mean, Std: w.Std, CI95: math.NaN(), Min: w.Min, Max: w.Max}
	if w.CI95 != nil {
		s.CI95 = *w.CI95
	}
	return nil
}

// CrashStats counts the injected failures of a scenario's trials.
type CrashStats struct {
	Total           int     `json:"total"`             // crashes injected across all trials
	MeanPerTrial    float64 `json:"mean_per_trial"`    // expected crashes per run
	MaxPerTrial     int     `json:"max_per_trial"`     // worst single trial
	TrialsWithCrash int     `json:"trials_with_crash"` // trials that saw >= 1 failure
	// SuppressedKills counts drawn failures dropped by the survivability
	// clamp (they would have killed a logical rank's last replica), and
	// InterruptedDraws the trials containing at least one: the fraction of
	// runs the raw failure process would have interrupted, forcing a
	// checkpoint restart in a real system.
	SuppressedKills  int `json:"suppressed_kills"`
	InterruptedDraws int `json:"interrupted_draws"`
}

// Analytic is the §II model evaluated at the scenario's operating point,
// for the measured-vs-analytic comparison.
type Analytic struct {
	CkptDeltaSeconds   float64 `json:"ckpt_delta_seconds"`
	CkptRestartSeconds float64 `json:"ckpt_restart_seconds"`
	// CkptTauSeconds is the checkpoint interval a ccr scenario's replays
	// actually ran (Daly's optimal interval unless overridden); zero for
	// replicated scenarios, which never checkpoint inside a run.
	CkptTauSeconds float64 `json:"ckpt_tau_seconds,omitempty"`
	// SystemMTBFSeconds is the MTBF of an unreplicated system on the same
	// node count (MTBF / phys procs): the platform a cCR scheme would run
	// on.
	SystemMTBFSeconds float64 `json:"system_mtbf_seconds"`
	// CCREfficiency is Daly's analytic cCR efficiency at that system MTBF:
	// for ccr scenarios, at the interval the replays ran (CkptTauSeconds),
	// so measured and analytic describe the same machine; for replicated
	// scenarios, at the optimal interval.
	CCREfficiency float64 `json:"ccr_efficiency"`
	// ReplEfficiency is the Ferreira-style replicated efficiency using the
	// measured fault-free efficiency as base (exact for degree 2, the
	// paper's configuration; an approximation otherwise). Zero for ccr
	// scenarios, which have no replicas to model.
	ReplEfficiency float64 `json:"repl_efficiency,omitempty"`
	// CrossoverNodeMTBFSeconds is the per-node MTBF below which cCR on
	// this node count drops under the scenario's measured fault-free
	// efficiency — i.e. where replication starts to win. Zero for ccr
	// scenarios (see Result.Crossovers for the measured pairing).
	CrossoverNodeMTBFSeconds float64 `json:"crossover_node_mtbf_seconds,omitempty"`
}

// Crossover pairs a measured ccr series with a measured replication series
// that shares its native baseline, and reports the per-node MTBF at which
// the measured ccr efficiency drops below the measured replicated
// efficiency — the paper's Fig. 1 crossover — next to the analytic
// ckpt.CrossoverMTBF prediction at the same operating point.
type Crossover struct {
	App      string `json:"app"`
	ReplMode string `json:"repl_mode"` // replicated series: display mode name
	Logical  int    `json:"logical"`   // logical ranks of the replicated series
	Degree   int    `json:"degree"`
	// CCRPhysProcs is the node count of the paired ccr series — the
	// machine whose per-node MTBF both axes below are expressed in.
	CCRPhysProcs int `json:"ccr_phys_procs"`
	// MeasuredNodeMTBFSeconds is log-interpolated between the two sampled
	// MTBF points whose measured efficiencies bracket the crossover; zero
	// when the sampled grid never crosses.
	MeasuredNodeMTBFSeconds float64 `json:"measured_node_mtbf_seconds"`
	// AnalyticNodeMTBFSeconds is ckpt.CrossoverMTBF(delta, restart,
	// measured replicated fault-free efficiency), scaled from system to
	// per-node MTBF by the ccr node count.
	AnalyticNodeMTBFSeconds float64 `json:"analytic_node_mtbf_seconds"`
}

// ScenarioResult aggregates one scenario's trials.
type ScenarioResult struct {
	Name        string  `json:"name"`
	App         string  `json:"app"`
	Mode        string  `json:"mode"`
	Logical     int     `json:"logical"`
	Degree      int     `json:"degree"`
	PhysProcs   int     `json:"phys_procs"`
	MTBFSeconds float64 `json:"mtbf_seconds"`
	Trials      int     `json:"trials"`

	HorizonSeconds       float64 `json:"horizon_seconds"`
	FaultFreeWallSeconds float64 `json:"fault_free_wall_seconds"`
	NativeWallSeconds    float64 `json:"native_wall_seconds"`
	// FaultFreeEfficiency is the paper's resource-normalized workload
	// efficiency of the scenario mode without failures (the Figure 5/6
	// metric).
	FaultFreeEfficiency float64 `json:"fault_free_efficiency"`

	Makespan   Stat `json:"makespan_seconds"` // wall time over trials
	Slowdown   Stat `json:"slowdown"`         // trial wall / fault-free wall
	Efficiency Stat `json:"efficiency"`       // fault-free eff scaled by slowdown

	Crashes  CrashStats `json:"crashes"`
	MemoHits int        `json:"memo_hits"`
	Analytic Analytic   `json:"analytic"`
}

// Result is a whole campaign: the reproducibility envelope plus one
// aggregate per scenario, in grid order, and the measured ccr-vs-
// replication crossovers the grid supports.
type Result struct {
	Seed      int64            `json:"seed"`
	Trials    int              `json:"trials"`
	Scenarios []ScenarioResult `json:"scenarios"`
	// Crossovers is present when the grid pairs ccr and replicated series
	// over a shared MTBF axis and native baseline.
	Crossovers []Crossover `json:"crossovers,omitempty"`
}

// trials is the per-scenario trial count of a fixed campaign.
func (cfg Config) trials() int {
	if cfg.Trials <= 0 {
		return 100
	}
	return cfg.Trials
}

// Run executes the campaign: two fault-free reference runs per scenario
// (native and scenario-mode; a ccr point's reference memo-hits its own
// native baseline), then trials [0, Trials) of every point's stream —
// simulated crash schedules for replicated points, ckptsim replays for ccr
// points — all fanned out over the worker count, then the deterministic
// aggregation including the measured crossovers.
func Run(cfg Config, scenarios []Scenario) (*Result, error) {
	return run(cfg, scenarios, store.Shard{})
}

// Populate is Run restricted to the trials shard sh owns, the build phase
// of a multi-process campaign. The references run in full on every shard
// (store-backed, so later shards hit the first one's records); replicated
// trials are partitioned by unique sweep point, exactly as
// experiments.PopulateStore partitions them, and ccr trials by trial
// index. The returned Result aggregates only this shard's trials, and the
// same partial aggregates are persisted as one mergeable record per
// scenario. After every shard of the scheme has run, Run against the
// merged store performs zero simulations and reproduces the
// single-process campaign byte for byte, and VerifyStoredAggregates
// cross-checks the pooled statistics against the merged shard aggregates.
func Populate(cfg Config, scenarios []Scenario, sh store.Shard) (*Result, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("campaign: Populate needs Config.Store")
	}
	return run(cfg, scenarios, sh)
}

// run is Run over the trials shard sh owns (all of them when inactive).
func run(cfg Config, scenarios []Scenario, sh store.Shard) (*Result, error) {
	experiments.Progress.SetStatus(fmt.Sprintf("campaign: %d scenarios, measuring references", len(scenarios)))
	pts, err := PreparePoints(cfg, scenarios)
	if err != nil {
		return nil, err
	}
	trials := cfg.trials()
	tallies := make([]*Tally, len(pts))
	counts := make([]int, len(pts))
	for i, p := range pts {
		tallies[i], counts[i] = &Tally{Point: p}, trials
	}
	experiments.Progress.SetStatus(fmt.Sprintf("campaign: %d trials per scenario", trials))
	if err := runTrials(cfg.Workers, cfg.Store, sh, tallies, counts); err != nil {
		return nil, err
	}
	experiments.Progress.SetStatus("campaign: aggregating")

	out := &Result{Seed: cfg.Seed, Trials: trials}
	aggs := make([][3]Agg, len(tallies))
	for i, tl := range tallies {
		aggs[i] = tl.Aggs
		out.Scenarios = append(out.Scenarios, tl.scenarioResult())
	}
	out.Crossovers = crossovers(pts, out.Scenarios)
	// A store-backed run persists its aggregates under its shard label, so
	// a later merge can cross-check any complete scheme against the pooled
	// statistics.
	if cfg.Store != nil {
		if err := persistAggregates(cfg.Store, sh, cfg, trials, scenarios, aggs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scenarioResult reports a tally's trials next to the §II models at the
// point's operating point.
func (tl *Tally) scenarioResult() ScenarioResult {
	p := tl.Point
	sc := p.Scenario.Point
	cs := tl.Crashes
	if tl.N > 0 { // a shard may own none of a point's trials
		cs.MeanPerTrial = float64(cs.Total) / float64(tl.N)
	}
	an := Analytic{
		CkptDeltaSeconds:   p.Delta,
		CkptRestartSeconds: p.Restart,
		SystemMTBFSeconds:  p.SysMTBF(),
	}
	if p.IsCCR() {
		an.CkptTauSeconds = p.Params.Tau
		an.CCREfficiency = p.AnalyticEfficiency()
	} else {
		an.CCREfficiency = ckpt.BestEfficiency(p.Delta, p.Restart, an.SystemMTBFSeconds)
		an.ReplEfficiency = p.AnalyticEfficiency()
		an.CrossoverNodeMTBFSeconds = ckpt.CrossoverMTBF(p.Delta, p.Restart, p.FFEff) * float64(p.PhysProcs)
	}
	return ScenarioResult{
		Name: sc.Name, App: sc.App, Mode: sc.Mode.String(),
		Logical: sc.Logical, Degree: sc.EffectiveDegree(), PhysProcs: p.PhysProcs,
		MTBFSeconds: p.Scenario.MTBF.Seconds(), Trials: tl.N,
		HorizonSeconds:       p.Horizon.Seconds(),
		FaultFreeWallSeconds: p.FFWall,
		NativeWallSeconds:    p.NativeWall,
		FaultFreeEfficiency:  p.FFEff,
		Makespan:             tl.Aggs[0].Stat(),
		Slowdown:             tl.Aggs[1].Stat(),
		Efficiency:           tl.Aggs[2].Stat(),
		Crashes:              cs,
		MemoHits:             tl.MemoHits,
		Analytic:             an,
	}
}

// planReferences validates the campaign and lays out the fault-free
// reference specs (native + scenario-mode per scenario, spec order fixing
// result order) and the per-scenario trial templates.
func planReferences(cfg Config, scenarios []Scenario) (base, templates []experiments.Spec, err error) {
	if len(scenarios) == 0 {
		return nil, nil, fmt.Errorf("campaign: no scenarios")
	}
	if cfg.CkptDelta < 0 || cfg.CkptRestart < 0 || cfg.CkptTau < 0 {
		return nil, nil, fmt.Errorf("campaign: negative checkpoint parameter")
	}
	for _, sc := range scenarios {
		if !sc.Point.Mode.Replicated() && sc.Point.Mode != scenario.CCR {
			return nil, nil, fmt.Errorf("campaign: scenario %q: mode %s has no failures to survive (use classic, intra or ccr)",
				sc.Point.Name, sc.Point.Mode)
		}
		if sc.MTBF <= 0 {
			return nil, nil, fmt.Errorf("campaign: scenario %q: MTBF must be positive", sc.Point.Name)
		}
		if f := sc.Point.Fault; f != nil && (f.MTBFSeconds > 0 || len(f.Crashes) > 0) {
			return nil, nil, fmt.Errorf("campaign: scenario %q: carry the fault model in Scenario.MTBF, not the point", sc.Point.Name)
		}
	}
	base = make([]experiments.Spec, 0, 2*len(scenarios))
	templates = make([]experiments.Spec, len(scenarios))
	for i, sc := range scenarios {
		native, err := experiments.SpecFor(sc.nativeScenario())
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: %w", err)
		}
		ff, err := experiments.SpecFor(sc.Point)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: %w", err)
		}
		templates[i] = ff
		ff.Name = sc.Point.Name + "/fault-free"
		base = append(base, native, ff)
	}
	return base, templates, nil
}

// maxHorizonDoublings bounds the ccr draw-window growth; past it the
// remaining tail of an effectively-stalled operating point (expected
// makespan > ~10^6 fault-free walls) is truncated rather than drawn.
const maxHorizonDoublings = 20

// ccrTrial draws one unclamped failure trace and replays the work under
// it. With grow set (the defaulted-horizon case) it doubles the draw
// window until it covers the failure-stretched makespan — the unclamped
// draw extends a trace without disturbing the failures already inside
// it, so growth refines the same trial rather than redrawing it. With an
// explicit horizon the window is a hard cap, exactly as it is for
// replicated draws.
func ccrTrial(work float64, p ckptsim.Params, nodes int, mtbf, horizon sim.Time, grow bool, seed int64) ckptsim.Trial {
	h := horizon
	for doublings := 0; ; doublings++ {
		d := fault.ExponentialDrawUnclamped(nodes, 1, mtbf, h, seed)
		times := make([]float64, len(d.Schedule.Crashes))
		for i, c := range d.Schedule.Crashes {
			times[i] = c.Time.Seconds()
		}
		// params were validated in PreparePoints; with work >= 0 the
		// replay cannot fail.
		tr, err := ckptsim.Replay(work, p, times)
		if err != nil {
			panic(fmt.Sprintf("campaign: ccr replay: %v", err))
		}
		if !grow || tr.Makespan <= h.Seconds() || doublings >= maxHorizonDoublings {
			return tr
		}
		h *= 2
	}
}

// crossovers reports, for every replicated/ccr series pairing, where the
// measured efficiencies cross over the sampled MTBF axis next to the
// analytic ckpt.CrossoverMTBF.
func crossovers(pts []*Point, results []ScenarioResult) []Crossover {
	eff := func(i int) float64 { return results[i].Efficiency.Mean }
	var out []Crossover
	for _, sp := range PairSeries(pts) {
		repl, ccr := pts[sp.Repl[0]], pts[sp.CCR[0]]
		out = append(out, Crossover{
			App:          repl.Scenario.Point.App,
			ReplMode:     repl.Scenario.Point.Mode.String(),
			Logical:      repl.Scenario.Point.Logical,
			Degree:       repl.Scenario.Point.EffectiveDegree(),
			CCRPhysProcs: ccr.PhysProcs,
			AnalyticNodeMTBFSeconds: ckpt.CrossoverMTBF(
				ccr.Params.Delta, ccr.Params.Restart, repl.FFEff) * float64(ccr.PhysProcs),
			MeasuredNodeMTBFSeconds: LogCrossover(sp.Axis(pts, eff)),
		})
	}
	return out
}

// SeriesPair is one crossover pairing: a replicated series and a ccr
// series over the same native baseline, each a list of indices into the
// point slice in grid order.
type SeriesPair struct {
	Repl, CCR []int
}

// PairSeries groups points into series — one scenario point swept over
// MTBF: same native baseline, mode, logical size and degree — in
// first-appearance order, and pairs every replicated series with each ccr
// series sharing its native baseline.
func PairSeries(pts []*Point) []SeriesPair {
	type seriesKey struct {
		base            string // native reference fingerprint
		mode            scenario.Mode
		logical, degree int
	}
	var order []seriesKey
	byKey := map[seriesKey][]int{}
	for i, p := range pts {
		sc := p.Scenario.Point
		k := seriesKey{p.nativeFP, sc.Mode, sc.Logical, sc.EffectiveDegree()}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var out []SeriesPair
	for _, rk := range order {
		if rk.mode == scenario.CCR {
			continue
		}
		for _, ck := range order {
			if ck.mode == scenario.CCR && ck.base == rk.base {
				out = append(out, SeriesPair{Repl: byKey[rk], CCR: byKey[ck]})
			}
		}
	}
	return out
}

// AxisSample is the measured efficiency difference (ccr - replicated) at
// one per-node MTBF both series sampled.
type AxisSample struct {
	MTBF, Diff float64
}

// Axis samples the pair's efficiency difference on the MTBFs both series
// measured, ascending; eff(i) is point i's measured mean efficiency.
func (sp SeriesPair) Axis(pts []*Point, eff func(i int) float64) []AxisSample {
	replAt := map[float64]float64{}
	for _, i := range sp.Repl {
		replAt[pts[i].Scenario.MTBF.Seconds()] = eff(i)
	}
	var axis []AxisSample
	for _, i := range sp.CCR {
		m := pts[i].Scenario.MTBF.Seconds()
		if re, ok := replAt[m]; ok {
			axis = append(axis, AxisSample{MTBF: m, Diff: eff(i) - re})
		}
	}
	sort.Slice(axis, func(a, b int) bool { return axis[a].MTBF < axis[b].MTBF })
	return axis
}

// LogCrossover finds the MTBF where an ascending axis first changes sign,
// log-linearly interpolated between the bracketing samples; 0 when the
// sampled axis never crosses or has fewer than two samples.
func LogCrossover(axis []AxisSample) float64 {
	for i := 1; i < len(axis); i++ {
		a, b := axis[i-1], axis[i]
		if a.Diff == 0 {
			return a.MTBF
		}
		if (a.Diff < 0) == (b.Diff < 0) {
			continue
		}
		la, lb := math.Log(a.MTBF), math.Log(b.MTBF)
		return math.Exp(la + (lb-la)*(0-a.Diff)/(b.Diff-a.Diff))
	}
	if n := len(axis); n > 0 && axis[n-1].Diff == 0 {
		return axis[n-1].MTBF
	}
	return 0
}

// fmtCI renders a confidence half-width, with "-" for the undefined
// (fewer-than-two-trials) case instead of a misleading 0.
func fmtCI(ci float64) string {
	if math.IsNaN(ci) {
		return "-"
	}
	return fmt.Sprintf("%.4f", ci)
}

// Table renders the campaign as the "efficiency vs MTBF" figure family:
// one row per scenario — measured replication and measured cCR series
// side by side — next to the analytic §II models, with the measured
// crossovers as footnotes.
func (r *Result) Table() *experiments.Table {
	t := &experiments.Table{
		ID:    "campaign",
		Title: fmt.Sprintf("Monte Carlo failure campaign (%d trials/point, seed %d)", r.Trials, r.Seed),
		Header: []string{"scenario", "mode", "d", "MTBF (s)", "crash/run",
			"makespan (s)", "±95%", "eff", "ff eff", "cCR model", "repl model", "memo"},
	}
	ccrName := scenario.CCR.String()
	for _, s := range r.Scenarios {
		replModel := fmt.Sprintf("%.3f", s.Analytic.ReplEfficiency)
		if s.Mode == ccrName {
			replModel = "-" // a ccr point has no replicas to model
		}
		t.AddRow(s.Name, s.Mode, fmt.Sprintf("%d", s.Degree),
			fmt.Sprintf("%.3g", s.MTBFSeconds),
			fmt.Sprintf("%.2f", s.Crashes.MeanPerTrial),
			fmt.Sprintf("%.3f", s.Makespan.Mean),
			fmtCI(s.Makespan.CI95),
			fmt.Sprintf("%.3f", s.Efficiency.Mean),
			fmt.Sprintf("%.3f", s.FaultFreeEfficiency),
			fmt.Sprintf("%.3f", s.Analytic.CCREfficiency),
			replModel,
			fmt.Sprintf("%d", s.MemoHits),
		)
	}
	t.Note("eff = fault-free efficiency scaled by the measured failure slowdown; cCR/repl model = §II analytic prediction at the same MTBF; ±95%% is '-' with fewer than two trials")
	t.Note("cCR rows measure coordinated checkpoint/restart by replaying the native makespan under a seeded failure trace (internal/ckptsim)")
	for _, x := range r.Crossovers {
		measured := "no crossover inside the sampled MTBF grid"
		if x.MeasuredNodeMTBFSeconds > 0 {
			measured = fmt.Sprintf("measured crossover at node MTBF ~%.3g s", x.MeasuredNodeMTBFSeconds)
		}
		t.Note("%s vs %s d%d (p%d): %s; analytic ckpt.CrossoverMTBF predicts %.3g s",
			ccrName, x.ReplMode, x.Degree, x.CCRPhysProcs, measured, x.AnalyticNodeMTBFSeconds)
	}
	if len(r.Crossovers) == 0 {
		t.Note("below a scenario's crossover node MTBF (see JSON), the cCR model drops under the measured fault-free efficiency and replication wins")
	}
	return t
}
