// Package scenario defines the one canonical, serializable description of
// an experiment point — application and its configuration, fault-tolerance
// mode, problem/replication sizing, platform (interconnect and machine
// model), intra-engine options, and fault model — plus the app registry
// that makes scenarios data instead of code.
//
// Every layer of the evaluation consumes the same type: the sweep runner
// (experiments), Monte Carlo failure campaigns (campaign), the figure
// builders, the CLIs, checked-in scenario files under scenarios/, and CI.
// A Scenario round-trips through JSON, validates itself (no silent default
// substitution), and fingerprints itself with a canonical encoding — the
// memo key of the sweep runner.
//
// Applications self-register (RegisterApp) with a config decoder and a
// runner factory; interconnects and machine models are named in the static
// tables simnet.Nets and perf.Machines.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// DefaultDegree is the replication degree selected by Degree == 0 in
// replicated modes: the paper's configuration (§II argues degree 2 is the
// right choice for crash failures).
const DefaultDegree = 2

// Scenario is one experiment point. The zero values of Degree, Net and
// Machine select the paper's defaults (degree 2, InfiniBand 20G,
// Grid'5000 node); everything else must be spelled out. The type is the
// JSON schema of scenario files (see scenarios/ and README.md).
type Scenario struct {
	// Name labels the point in results and tables. It is not part of the
	// fingerprint: two scenarios differing only in Name are the same
	// simulation.
	Name string `json:"name,omitempty"`

	// App names a registered application; Config is its app-specific
	// configuration, decoded by the app's registry entry over the app's
	// default config (omitted fields keep their defaults).
	App    string          `json:"app"`
	Config json.RawMessage `json:"config,omitempty"`

	Mode    Mode `json:"mode"`
	Logical int  `json:"logical"`          // logical MPI ranks
	Degree  int  `json:"degree,omitempty"` // replication degree (0 = default 2)

	// Net / Machine select named platform models (simnet.Nets, perf.Machines)
	// ("" = the paper's platform). NetConfig / MachineConfig instead spell
	// a custom model inline; setting both the name and the inline config
	// for one axis is an error.
	Net           string         `json:"net,omitempty"`
	Machine       string         `json:"machine,omitempty"`
	NetConfig     *simnet.Config `json:"net_config,omitempty"`
	MachineConfig *perf.Machine  `json:"machine_config,omitempty"`

	// Intra configures the intra-parallelization engine (replicated modes).
	Intra *IntraOptions `json:"intra,omitempty"`

	// Ckpt parameterizes the simulated coordinated checkpoint/restart of
	// ccr-mode scenarios. Other modes must leave it unset.
	Ckpt *CkptOptions `json:"ckpt,omitempty"`

	// Fault is the fault model: either an explicit crash schedule (sweep
	// points) or an exponential per-replica MTBF (campaign points).
	Fault *FaultSpec `json:"fault,omitempty"`
}

// CkptOptions are the coordinated checkpoint/restart parameters of a
// ccr-mode scenario, in seconds. Zero values pick campaign defaults:
// delta defaults to 5% of the fault-free wall time, restart to delta, and
// tau to Daly's optimal interval at the scenario's system MTBF.
type CkptOptions struct {
	// TauSeconds is the checkpoint interval (0 = optimal interval).
	TauSeconds float64 `json:"tau_seconds,omitempty"`
	// DeltaSeconds is the cost of writing one checkpoint.
	DeltaSeconds float64 `json:"delta_seconds,omitempty"`
	// RestartSeconds is the cost of restarting after a failure.
	RestartSeconds float64 `json:"restart_seconds,omitempty"`
}

// norm folds the all-zero options into nil, so an explicit empty "ckpt"
// object fingerprints identically to an omitted one.
func (c *CkptOptions) norm() *CkptOptions {
	if c == nil || *c == (CkptOptions{}) {
		return nil
	}
	return c
}

// IntraOptions is the serializable subset of core.Options.
type IntraOptions struct {
	// Inout selects the protection against the §III-B2 true-dependence
	// hazard: "copy" (copy-restore, the default) or "atomic".
	Inout string `json:"inout,omitempty"`
}

// CoreOptions converts the serializable options to the engine's form.
func (o *IntraOptions) CoreOptions() (core.Options, error) {
	var opts core.Options
	if o == nil {
		return opts, nil
	}
	switch o.Inout {
	case "", "copy":
		opts.Mode = core.CopyRestore
	case "atomic":
		opts.Mode = core.AtomicApply
	default:
		return core.Options{}, fmt.Errorf("scenario: unknown inout mode %q (copy | atomic)", o.Inout)
	}
	return opts, nil
}

// FaultSpec is the serializable fault model of a scenario.
type FaultSpec struct {
	// MTBFSeconds, when positive, subjects the point to an exponential
	// per-replica failure process: the campaign axis. Sweep points cannot
	// run it directly (a single point has no trial dimension).
	MTBFSeconds float64 `json:"mtbf_seconds,omitempty"`
	// HorizonSeconds bounds the campaign crash-drawing window
	// (0 = the scenario's fault-free wall time).
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`
	// Crashes is an explicit, reproducible crash schedule.
	Crashes []Crash `json:"crashes,omitempty"`
}

// Crash is one scheduled replica failure.
type Crash struct {
	Logical   int     `json:"logical"`
	Lane      int     `json:"lane"`
	AtSeconds float64 `json:"at_seconds"`
}

// Schedule converts the explicit crashes to the fault layer's form, or nil
// when there are none.
func (f *FaultSpec) Schedule() *fault.Schedule {
	if f == nil || len(f.Crashes) == 0 {
		return nil
	}
	s := &fault.Schedule{Crashes: make([]fault.Crash, len(f.Crashes))}
	for i, c := range f.Crashes {
		s.Crashes[i] = fault.Crash{Logical: c.Logical, Lane: c.Lane, Time: sim.Seconds(c.AtSeconds)}
	}
	return s
}

// fingerprint is the fault model's contribution to the scenario
// fingerprint. An absent or empty model contributes nothing, so a
// fault-free point keys identically with and without the field.
func (f *FaultSpec) fingerprint() string {
	if f == nil {
		return ""
	}
	var b strings.Builder
	if f.MTBFSeconds > 0 || f.HorizonSeconds > 0 {
		fmt.Fprintf(&b, "mtbf%g/h%g;", f.MTBFSeconds, f.HorizonSeconds)
	}
	b.WriteString(f.Schedule().Fingerprint())
	return b.String()
}

// CheckNet validates a custom interconnect model. A config that would
// previously have been silently swapped for the default platform (zero
// bandwidth) is an error instead.
func CheckNet(c simnet.Config) error {
	if c.Bandwidth <= 0 {
		return fmt.Errorf("scenario: custom net has non-positive bandwidth %g B/s", c.Bandwidth)
	}
	if c.LocalBandwidth <= 0 {
		return fmt.Errorf("scenario: custom net has non-positive local bandwidth %g B/s", c.LocalBandwidth)
	}
	if c.Latency < 0 || c.LocalLatency < 0 {
		return fmt.Errorf("scenario: custom net has negative latency")
	}
	if c.CoresPerNode < 0 {
		return fmt.Errorf("scenario: custom net has negative cores per node")
	}
	return nil
}

// CheckMachine validates a custom machine model.
func CheckMachine(m perf.Machine) error {
	if m.FlopsPerCore <= 0 {
		return fmt.Errorf("scenario: custom machine has non-positive flop rate %g", m.FlopsPerCore)
	}
	if m.MemBWPerCore <= 0 {
		return fmt.Errorf("scenario: custom machine has non-positive memory bandwidth %g", m.MemBWPerCore)
	}
	return nil
}

// Platform resolves the scenario's interconnect and machine models:
// named models, inline custom configs, or the paper's defaults.
func (s Scenario) Platform() (simnet.Config, perf.Machine, error) {
	net := simnet.InfiniBand20G
	switch {
	case s.NetConfig != nil:
		if s.Net != "" {
			return simnet.Config{}, perf.Machine{}, fmt.Errorf("scenario %q: both net %q and an inline net_config", s.Name, s.Net)
		}
		if err := CheckNet(*s.NetConfig); err != nil {
			return simnet.Config{}, perf.Machine{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		net = *s.NetConfig
	case s.Net != "":
		n, ok := simnet.Nets[s.Net]
		if !ok {
			return simnet.Config{}, perf.Machine{}, fmt.Errorf("scenario %q: unknown net %q (have %s)",
				s.Name, s.Net, strings.Join(simnet.NetNames(), ", "))
		}
		net = n
	}
	machine := perf.Grid5000
	switch {
	case s.MachineConfig != nil:
		if s.Machine != "" {
			return simnet.Config{}, perf.Machine{}, fmt.Errorf("scenario %q: both machine %q and an inline machine_config", s.Name, s.Machine)
		}
		if err := CheckMachine(*s.MachineConfig); err != nil {
			return simnet.Config{}, perf.Machine{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		machine = *s.MachineConfig
	case s.Machine != "":
		m, ok := perf.Machines[s.Machine]
		if !ok {
			return simnet.Config{}, perf.Machine{}, fmt.Errorf("scenario %q: unknown machine %q (have %s)",
				s.Name, s.Machine, strings.Join(perf.MachineNames(), ", "))
		}
		machine = m
	}
	return net, machine, nil
}

// AppConfig decodes the scenario's app configuration: the registered app's
// default config overlaid with the scenario's Config object. Unknown
// fields are an error (they are typos in a scenario file, not extensions).
func (s Scenario) AppConfig() (any, error) {
	ent, err := AppByName(s.App)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	cfg := ent.New()
	if len(s.Config) > 0 {
		dec := json.NewDecoder(bytes.NewReader(s.Config))
		dec.DisallowUnknownFields()
		if err := dec.Decode(cfg); err != nil {
			return nil, fmt.Errorf("scenario %q: bad %s config: %w", s.Name, s.App, err)
		}
	}
	return cfg, nil
}

// EffectiveDegree is the replication degree a point of mode m and degree
// field degree actually runs: 1 outside the replicated modes, and
// DefaultDegree when degree is zero.
func EffectiveDegree(m Mode, degree int) int {
	if !m.Replicated() {
		return 1
	}
	if degree == 0 {
		return DefaultDegree
	}
	return degree
}

// EffectiveDegree is the replication degree the point actually runs.
func (s Scenario) EffectiveDegree() int { return EffectiveDegree(s.Mode, s.Degree) }

// PhysProcs is the number of physical processes the point occupies.
func (s Scenario) PhysProcs() int { return s.Logical * s.EffectiveDegree() }

// Validate checks the scenario end to end: registered app, decodable
// config, known mode, positive sizing, resolvable platform, serializable
// intra options, and a coherent fault model. It is the single validation
// path for every consumer (sweep, campaign, CLIs, scenario files).
func (s Scenario) Validate() error {
	if s.App == "" {
		return fmt.Errorf("scenario %q: no application", s.Name)
	}
	if _, err := s.AppConfig(); err != nil {
		return err
	}
	if !s.Mode.Known() {
		return fmt.Errorf("scenario %q: unknown mode %d", s.Name, int(s.Mode))
	}
	if s.Logical < 1 {
		return fmt.Errorf("scenario %q: needs at least 1 logical rank, got %d", s.Name, s.Logical)
	}
	if s.Degree < 0 {
		return fmt.Errorf("scenario %q: negative replication degree %d", s.Name, s.Degree)
	}
	if s.Mode.Replicated() && s.Degree == 1 {
		return fmt.Errorf("scenario %q: %s needs degree >= 2 (or 0 for the default), got 1", s.Name, s.Mode.Name())
	}
	if s.Mode == CCR && s.Degree > 1 {
		return fmt.Errorf("scenario %q: ccr runs unreplicated, got degree %d", s.Name, s.Degree)
	}
	if _, _, err := s.Platform(); err != nil {
		return err
	}
	if _, err := s.Intra.CoreOptions(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.validateCkpt(); err != nil {
		return err
	}
	return s.validateFault()
}

func (s Scenario) validateCkpt() error {
	c := s.Ckpt
	if c == nil {
		return nil
	}
	if s.Mode != CCR && c.norm() != nil {
		return fmt.Errorf("scenario %q: ckpt options require mode ccr, not %s", s.Name, s.Mode.Name())
	}
	if c.TauSeconds < 0 || c.DeltaSeconds < 0 || c.RestartSeconds < 0 {
		return fmt.Errorf("scenario %q: negative ckpt parameter", s.Name)
	}
	return nil
}

func (s Scenario) validateFault() error {
	f := s.Fault
	if f == nil {
		return nil
	}
	if err := sim.CheckSeconds("mtbf_seconds", f.MTBFSeconds); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := sim.CheckSeconds("horizon_seconds", f.HorizonSeconds); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if f.MTBFSeconds > 0 && !s.Mode.Replicated() && s.Mode != CCR {
		return fmt.Errorf("scenario %q: an MTBF fault model requires a replicated or ccr mode, not %s", s.Name, s.Mode.Name())
	}
	if len(f.Crashes) > 0 && !s.Mode.Replicated() {
		// ccr included: explicit crash schedules install on the replication
		// system; the ccr failure process lives in the campaign's replays.
		return fmt.Errorf("scenario %q: a crash schedule requires a replicated mode, not %s", s.Name, s.Mode.Name())
	}
	if f.MTBFSeconds > 0 && len(f.Crashes) > 0 {
		return fmt.Errorf("scenario %q: fault model sets both an MTBF and explicit crashes", s.Name)
	}
	if f.HorizonSeconds > 0 && f.MTBFSeconds == 0 {
		return fmt.Errorf("scenario %q: fault horizon without an MTBF has no effect", s.Name)
	}
	d := s.EffectiveDegree()
	for _, c := range f.Crashes {
		if c.Logical < 0 || c.Logical >= s.Logical {
			return fmt.Errorf("scenario %q: crash names logical rank %d of %d", s.Name, c.Logical, s.Logical)
		}
		if c.Lane < 0 || c.Lane >= d {
			return fmt.Errorf("scenario %q: crash names lane %d of degree %d", s.Name, c.Lane, d)
		}
		if err := sim.CheckSeconds("crash at_seconds", c.AtSeconds); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// Fingerprint returns the canonical content key of the scenario: the JSON
// encoding of the fully-resolved point (config decoded and re-encoded,
// platform resolved, degree defaulted). Two scenarios with equal
// fingerprints describe identical simulations — the property the sweep
// memo relies on — and any semantic field change changes the key. Name is
// deliberately excluded.
func (s Scenario) Fingerprint() (string, error) {
	cfg, err := s.AppConfig()
	if err != nil {
		return "", err
	}
	net, machine, err := s.Platform()
	if err != nil {
		return "", err
	}
	// Fingerprint the resolved engine options, not the raw strings, so an
	// explicit inout "copy" keys identically to the omitted default — the
	// same normalization the sweep memo key applies.
	opts, err := s.Intra.CoreOptions()
	if err != nil {
		return "", fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	key := struct {
		App       string         `json:"app"`
		Config    any            `json:"config"`
		Mode      Mode           `json:"mode"`
		Logical   int            `json:"logical"`
		Degree    int            `json:"degree"`
		Net       simnet.Config  `json:"net"`
		Machine   perf.Machine   `json:"machine"`
		Inout     core.InoutMode `json:"inout"`
		CostScale int            `json:"cost_scale"` // always 0: a retired field, kept so trial seeds stay put
		Ckpt      *CkptOptions   `json:"ckpt"`
		Fault     string         `json:"fault"`
	}{s.App, cfg, s.Mode, s.Logical, s.EffectiveDegree(), net, machine,
		opts.Mode, 0, s.Ckpt.norm(), s.Fault.fingerprint()}
	b, err := json.Marshal(key)
	if err != nil {
		return "", fmt.Errorf("scenario %q: fingerprint: %w", s.Name, err)
	}
	return string(b), nil
}

// MustRaw marshals an app config for Scenario.Config construction in code.
// It panics on unmarshalable values, which for the concrete config structs
// cannot happen.
func MustRaw(cfg any) json.RawMessage {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("scenario: marshal config: %v", err))
	}
	return b
}
