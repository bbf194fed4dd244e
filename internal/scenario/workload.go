package scenario

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// DefaultCkptDeltaFrac is the checkpoint cost assumed by job-stream
// fault-tolerance policies when the workload leaves it unset: 5% of the
// job's fault-free wall time, the same default the campaign layer uses.
const DefaultCkptDeltaFrac = 0.05

// DefaultSlowdownBound is the bounded-slowdown denominator floor (in
// virtual seconds) when the workload leaves it unset. It plays the role
// of the customary 10-second threshold on real traces, scaled to the
// sub-second virtual makespans of the simulated mini-apps.
const DefaultSlowdownBound = 0.01

// JobClass is one kind of job a workload's load generator submits: a
// registered application at a fixed scale, drawn with the given weight.
type JobClass struct {
	// Name labels the class in reports; it defaults to the app name and is
	// not part of any fingerprint.
	Name string `json:"name,omitempty"`

	// App names a registered application; Config is its configuration,
	// decoded exactly like Scenario.Config.
	App    string          `json:"app"`
	Config json.RawMessage `json:"config,omitempty"`

	// Logical is the job's requested rank count: the nodes a native run
	// occupies. A policy choosing replication doubles the footprint.
	Logical int `json:"logical"`

	// Weight is the class's relative draw probability (0 = 1).
	Weight float64 `json:"weight,omitempty"`
}

// Label is the class's display name: Name, or the app name.
func (c JobClass) Label() string {
	if c.Name != "" {
		return c.Name
	}
	return c.App
}

// EffWeight is the class's draw weight with the default applied.
func (c JobClass) EffWeight() float64 {
	if c.Weight == 0 {
		return 1
	}
	return c.Weight
}

// Workload describes an open-load job-stream experiment (sweep -mode
// jobstream): a seeded Poisson arrival process of jobs drawn from a class
// mix, submitted to a shared cluster of Nodes nodes, scheduled by each of
// the named schedulers and protected by each of the named fault-tolerance
// policies — every (rate, scheduler, policy) cell replaying the identical
// arrival stream and node-failure trace. It is the "workload" section of a
// scenario file.
type Workload struct {
	// Nodes is the shared cluster size.
	Nodes int `json:"nodes"`

	// Net / Machine select named platform models ("" = the paper's
	// platform), exactly as in Scenario.
	Net     string `json:"net,omitempty"`
	Machine string `json:"machine,omitempty"`

	// Jobs is the number of arrivals per trial.
	Jobs int `json:"jobs"`

	// Rates is the arrival-rate axis (jobs per virtual second): the
	// workload's grid dimension. Every rate replays the same underlying
	// interarrival draws scaled by 1/rate (common random numbers).
	Rates []float64 `json:"rates_jobs_per_sec"`

	// MTBFSeconds is the per-node exponential MTBF driving the shared
	// node-failure trace (0 = no failures).
	MTBFSeconds float64 `json:"mtbf_seconds,omitempty"`

	// CkptDeltaFrac is the checkpoint cost as a fraction of a job's
	// fault-free wall time, for policies that pick checkpoint/restart
	// (0 = DefaultCkptDeltaFrac).
	CkptDeltaFrac float64 `json:"ckpt_delta_frac,omitempty"`

	// BoundSeconds floors the bounded-slowdown denominator
	// (0 = DefaultSlowdownBound).
	BoundSeconds float64 `json:"bound_seconds,omitempty"`

	// Seed drives arrivals, class draws and the failure trace. The CLI's
	// -seed overrides it; 0 here and there means seed 1.
	Seed int64 `json:"seed,omitempty"`

	// Mix is the job-class distribution.
	Mix []JobClass `json:"mix"`

	// Schedulers and Policies name the jobstream schedulers and
	// fault-tolerance policies to compare side by side (see sweep -list).
	// Name resolution lives in internal/jobstream; Validate only checks
	// shape here.
	Schedulers []string `json:"schedulers"`
	Policies   []string `json:"policies"`
}

// DeltaFrac is CkptDeltaFrac with the default applied.
func (w Workload) DeltaFrac() float64 {
	if w.CkptDeltaFrac == 0 {
		return DefaultCkptDeltaFrac
	}
	return w.CkptDeltaFrac
}

// SlowdownBound is BoundSeconds with the default applied.
func (w Workload) SlowdownBound() float64 {
	if w.BoundSeconds == 0 {
		return DefaultSlowdownBound
	}
	return w.BoundSeconds
}

// platformScenario adapts the workload's platform fields to the Scenario
// resolution path, so both speak the same registry and errors.
func (w Workload) platformScenario() Scenario {
	return Scenario{Name: "workload", Net: w.Net, Machine: w.Machine}
}

// Validate checks the workload end to end: sizing, rate axis, class mix
// (registered apps, decodable configs, jobs that fit the cluster),
// resolvable platform, and non-empty scheduler/policy axes. Scheduler and
// policy names resolve against the jobstream registries at run time.
func (w Workload) Validate() error {
	if w.Nodes < 1 {
		return fmt.Errorf("workload: needs at least 1 node, got %d", w.Nodes)
	}
	if w.Jobs < 1 {
		return fmt.Errorf("workload: needs at least 1 job per trial, got %d", w.Jobs)
	}
	if len(w.Rates) == 0 {
		return fmt.Errorf("workload: empty rates_jobs_per_sec axis")
	}
	for _, r := range w.Rates {
		if !(r > 0) {
			return fmt.Errorf("workload: arrival rate %g must be positive", r)
		}
	}
	if err := sim.CheckSeconds("mtbf_seconds", w.MTBFSeconds); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if w.CkptDeltaFrac < 0 || w.CkptDeltaFrac >= 1 {
		return fmt.Errorf("workload: ckpt_delta_frac %g outside [0, 1)", w.CkptDeltaFrac)
	}
	if w.BoundSeconds < 0 {
		return fmt.Errorf("workload: negative bound_seconds %g", w.BoundSeconds)
	}
	if len(w.Mix) == 0 {
		return fmt.Errorf("workload: empty job mix")
	}
	for i, c := range w.Mix {
		if c.Weight < 0 {
			return fmt.Errorf("workload: class %q has negative weight %g", c.Label(), c.Weight)
		}
		if c.Logical < 1 {
			return fmt.Errorf("workload: class %q needs at least 1 logical rank, got %d", c.Label(), c.Logical)
		}
		if c.Logical > w.Nodes {
			return fmt.Errorf("workload: class %q needs %d nodes but the cluster has %d", c.Label(), c.Logical, w.Nodes)
		}
		sc := Scenario{Name: c.Label(), App: c.App, Config: c.Config}
		if c.App == "" {
			return fmt.Errorf("workload: class %d has no application", i)
		}
		if _, err := sc.AppConfig(); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	}
	if _, _, err := w.platformScenario().Platform(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := checkAxis("schedulers", w.Schedulers); err != nil {
		return err
	}
	return checkAxis("policies", w.Policies)
}

// checkAxis rejects empty, blank or duplicate side-by-side axis entries
// (a duplicate would emit two indistinguishable result groups).
func checkAxis(what string, names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("workload: empty %s axis", what)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" {
			return fmt.Errorf("workload: blank name in %s axis", what)
		}
		if seen[n] {
			return fmt.Errorf("workload: duplicate %q in %s axis", n, what)
		}
		seen[n] = true
	}
	return nil
}

// classFP is a job class's contribution to workload fingerprints: the
// app-config content key plus the resolved scale and weight. Name is
// deliberately excluded, like Scenario.Name.
type classFP struct {
	App     string  `json:"app"`
	Logical int     `json:"logical"`
	Weight  float64 `json:"weight"`
}

func (w Workload) classFPs() ([]classFP, error) {
	out := make([]classFP, len(w.Mix))
	for i, c := range w.Mix {
		cfg, err := Scenario{Name: c.Label(), App: c.App, Config: c.Config}.AppConfig()
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		afp, err := AppFingerprint(c.App, cfg)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		out[i] = classFP{App: afp, Logical: c.Logical, Weight: c.EffWeight()}
	}
	return out, nil
}

// StreamFingerprint canonically encodes one arrival-stream point: the
// workload resolved (platform models inlined, defaults applied, class
// configs content-keyed) at a single rate, without the scheduler/policy
// axes or the seed. Two equal stream fingerprints under the same seed and
// trial index generate identical arrival streams and failure traces —
// the content key the jobstream result store builds on.
func (w Workload) StreamFingerprint(rate float64) (string, error) {
	net, machine, err := w.platformScenario().Platform()
	if err != nil {
		return "", fmt.Errorf("workload: %w", err)
	}
	classes, err := w.classFPs()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(struct {
		Nodes     int       `json:"nodes"`
		Net       any       `json:"net"`
		Machine   any       `json:"machine"`
		Jobs      int       `json:"jobs"`
		Rate      float64   `json:"rate"`
		MTBF      float64   `json:"mtbf"`
		DeltaFrac float64   `json:"delta_frac"`
		Bound     float64   `json:"bound"`
		Mix       []classFP `json:"mix"`
	}{w.Nodes, net, machine, w.Jobs, rate, w.MTBFSeconds, w.DeltaFrac(), w.SlowdownBound(), classes})
	if err != nil {
		return "", fmt.Errorf("workload: fingerprint: %w", err)
	}
	return string(b), nil
}

// Fingerprint is the canonical content key of the whole workload: every
// stream point plus the seed and the scheduler/policy axes. Class and
// workload names are excluded.
func (w Workload) Fingerprint() (string, error) {
	streams := make([]string, len(w.Rates))
	for i, r := range w.Rates {
		fp, err := w.StreamFingerprint(r)
		if err != nil {
			return "", err
		}
		streams[i] = fp
	}
	b, err := json.Marshal(struct {
		Streams    []string `json:"streams"`
		Seed       int64    `json:"seed"`
		Schedulers []string `json:"schedulers"`
		Policies   []string `json:"policies"`
	}{streams, w.Seed, w.Schedulers, w.Policies})
	if err != nil {
		return "", fmt.Errorf("workload: fingerprint: %w", err)
	}
	return string(b), nil
}

// Points expands the rate axis: one single-rate workload per rate, in
// axis order — the jobstream analogue of Grid.Expand.
func (w Workload) Points() []Workload {
	out := make([]Workload, len(w.Rates))
	for i, r := range w.Rates {
		p := w
		p.Rates = []float64{r}
		out[i] = p
	}
	return out
}
