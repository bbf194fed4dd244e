package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/amg"
	"repro/internal/apps/apputil"
	"repro/internal/apps/gtc"
	"repro/internal/apps/hpccg"
	"repro/internal/apps/minighost"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// App is one benchmark application bound to a concrete configuration,
// ready to run on a sweep point. The key is a canonical content
// fingerprint of the configuration (scenario.AppFingerprint): two Apps
// with equal keys produce identical simulations, which is what lets the
// sweep memoize repeated points.
type App struct {
	Name string
	key  string
	main appMain
}

// AppFor binds a registered application to a decoded configuration (the
// pointer type the registry's New returns).
func AppFor(name string, cfg any) (App, error) {
	ent, err := scenario.AppByName(name)
	if err != nil {
		return App{}, err
	}
	run, err := ent.Run(cfg)
	if err != nil {
		return App{}, err
	}
	key, err := scenario.AppFingerprint(name, cfg)
	if err != nil {
		return App{}, err
	}
	return App{Name: name, key: key, main: appMain(run)}, nil
}

// mustApp is AppFor for the typed constructors below, whose registry
// entries are guaranteed by this package's app imports.
func mustApp(name string, cfg any) App {
	app, err := AppFor(name, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return app
}

// HPCCG wraps the HPCCG conjugate-gradient mini-app for a sweep.
func HPCCG(cfg hpccg.Config) App { return mustApp("hpccg", &cfg) }

// AMG wraps the AMG2013 multigrid mini-app for a sweep.
func AMG(cfg amg.Config) App { return mustApp("amg", &cfg) }

// GTC wraps the GTC particle-in-cell code for a sweep.
func GTC(cfg gtc.Config) App { return mustApp("gtc", &cfg) }

// MiniGhost wraps the MiniGhost stencil mini-app for a sweep.
func MiniGhost(cfg minighost.Config) App { return mustApp("minighost", &cfg) }

// Spec is one sweep point: a platform, a fault-tolerance mode, and an
// application. The zero values of Degree, Net and Machine select the
// paper's defaults (degree 2, InfiniBand 20G, Grid'5000 node). A spec is
// plain data: its content key (Key) covers every field but the Name label,
// and names the execution strategy (executed or replayed) rather than the
// trace, so equal specs are one simulation in the memo and one record in
// the store.
type Spec struct {
	Name    string // label carried into the Result
	Mode    Mode
	Logical int // logical MPI ranks
	Degree  int // replication degree (0 = default 2)
	// Inout is the intra engine's setting a scenario can express
	// (scenario.IntraOptions); the zero value is copy-restore.
	Inout   core.InoutMode
	Net     simnet.Config
	Machine perf.Machine
	App     App

	// Fault, when non-nil and non-empty, arms the crash schedule on the
	// cluster before launch (replicated modes only). Schedules participate
	// in the memo key via their content fingerprint, so two trials drawing
	// identical schedules — in particular, fault-free draws — are simulated
	// once.
	Fault *fault.Schedule

	// Replay, when non-nil, substitutes the application's main with a
	// replay of the traces RecordTraces records for this spec's logical
	// program: the simulated makespan, crash consequences and physical
	// layout are identical to executing the application, but its kernels
	// never run. Kernel timings are not re-derived and the engine event
	// count is the replay's own, so the key flags the strategy and a
	// replayed record never stands in for an executed one. The rest
	// depends on the engine:
	//   - a classic replay folds each section into the compute around it,
	//     so its record has no section or task counts, and it reports the
	//     in-app total its classic recording measured, fault-free;
	//   - an intra replay runs every section through the real protocol,
	//     so its record carries the section, task, update and copy
	//     accounting of execution, and it reports its own in-app total,
	//     equal to execution's for the four apps, never the recording's.
	// Only callers that consume timing and crash aggregates arm it, and
	// only on a crash schedule: the crashed replicated trials of
	// campaigns, explore and Populate, and jobstream's crashed replicated
	// jobs. Their fault-free runs are the executed reference.
	Replay *core.TraceSet

	// key caches the schedule-free part of Key for the spec and its
	// copies (SpecFor sets it); Key uses it only while the fields it was
	// made for are unchanged.
	key *keyTemplate
}

// Key returns the spec's canonical content fingerprint — the canonical
// JSON encoding of every semantic field, and the memo and store key. A
// spec without an application or with an unknown mode has no key; it
// could never run, so the sweep reports it before simulating anything.
// A replayed spec keys apart from its executed twin under a replay flag
// (its trace is a function of the other fields, so the flag is all the
// key needs): their records agree on the wall time, crashes and layout
// but not on the diagnostics Replay leaves out. Executed specs omit the
// flag.
//
// A campaign keys every trial of a point, so the key is built from a
// template: its fields marshaled once with an empty fault fingerprint,
// which each trial's fingerprint is spliced into.
func (s Spec) Key() (string, error) {
	if s.App.key == "" {
		return "", fmt.Errorf("spec %q has no application", s.Name)
	}
	f := s.keyFields()
	t := s.key
	if t == nil || !t.fields.same(f) {
		t = &keyTemplate{fields: f}
	}
	t.once.Do(t.build)
	if t.err != nil {
		return "", fmt.Errorf("spec %q: %w", s.Name, t.err)
	}
	return t.key(s.Fault.Fingerprint(), s.Replay != nil), nil
}

// keyFields is what a spec's key encodes, in key order: its content with
// the degree and mode normalized, the fault fingerprint empty and the
// replay flag unset.
type keyFields struct {
	Mode      Mode           `json:"mode"`
	Logical   int            `json:"logical"`
	Degree    int            `json:"degree"`
	Inout     core.InoutMode `json:"inout"`
	CostScale int            `json:"cost_scale"` // always 0: a retired field, kept so store keys stay put
	Net       simnet.Config  `json:"net"`
	Machine   perf.Machine   `json:"machine"`
	Fault     string         `json:"fault"`
	App       string         `json:"app"`
	Replay    bool           `json:"replay,omitempty"`
}

func (s Spec) keyFields() keyFields {
	// Normalize the degree the same way the cluster resolves it, so a
	// degree-0 (default) spec memo-hits its spelled-out twin and native
	// specs key identically whatever degree tag they carry.
	degree := scenario.EffectiveDegree(s.Mode, s.Degree)
	// A ccr point's cluster simulation IS the native run (checkpointing is
	// replayed outside the simulator), so it keys as native and a campaign's
	// ccr reference memo-hits its own native baseline.
	mode := s.Mode
	if mode == scenario.CCR {
		mode = scenario.Native
	}
	return keyFields{Mode: mode, Logical: s.Logical, Degree: degree, Inout: s.Inout,
		Net: s.Net, Machine: s.Machine, App: s.App.key}
}

// same reports whether two field sets encode alike: == plus the sign of
// every float, since == equates 0 and -0, which encode apart.
func (f keyFields) same(o keyFields) bool {
	return f == o && f.signs() == o.signs()
}

func (f keyFields) signs() [4]bool {
	return [4]bool{math.Signbit(f.Net.Bandwidth), math.Signbit(f.Net.LocalBandwidth),
		math.Signbit(f.Machine.MemBWPerCore), math.Signbit(f.Machine.FlopsPerCore)}
}

// keyTemplate is the encoding of a keyFields split around its empty
// fault fingerprint, built on first use: copies of a spec share it, and
// may key from several goroutines at once. A fingerprint is digits and
// ":@;", which JSON strings carry unescaped, so splicing one in gives the
// bytes marshaling it would, and a set replay flag, the last field,
// marshals as `,"replay":true` before the closing brace.
type keyTemplate struct {
	fields         keyFields
	once           sync.Once
	prefix, suffix string
	err            error
}

func (t *keyTemplate) build() {
	b, err := json.Marshal(t.fields)
	if err != nil {
		t.err = err
		return
	}
	const mark = `,"fault":"`
	i := bytes.Index(b, []byte(mark)) + len(mark)
	t.prefix, t.suffix = string(b[:i]), string(b[i:])
}

func (t *keyTemplate) key(fingerprint string, replay bool) string {
	if !replay {
		return t.prefix + fingerprint + t.suffix
	}
	return t.prefix + fingerprint + t.suffix[:len(t.suffix)-1] + `,"replay":true}`
}

// SpecFor converts a validated Scenario into a runnable sweep point: the
// thin adapter every scenario consumer (CLIs, figures, scenario files,
// campaigns) goes through.
func SpecFor(sc scenario.Scenario) (Spec, error) {
	if err := sc.Validate(); err != nil {
		return Spec{}, err
	}
	if sc.Fault != nil && sc.Fault.MTBFSeconds > 0 {
		return Spec{}, fmt.Errorf("scenario %q: an MTBF fault model needs a campaign (-mode campaign), a single sweep point cannot run it", sc.Name)
	}
	cfg, err := sc.AppConfig()
	if err != nil {
		return Spec{}, err
	}
	app, err := AppFor(sc.App, cfg)
	if err != nil {
		return Spec{}, err
	}
	net, machine, err := sc.Platform()
	if err != nil {
		return Spec{}, err
	}
	opts, err := sc.Intra.CoreOptions()
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		Name: sc.Name, Mode: sc.Mode, Logical: sc.Logical, Degree: sc.Degree,
		Inout: opts.Mode, Net: net, Machine: machine, App: app,
		Fault: sc.Fault.Schedule(),
	}
	// Every copy that changes only the name, schedule or replay keys
	// from one template: a campaign point's trials, jobstream's jobs.
	s.key = &keyTemplate{fields: s.keyFields()}
	return s, nil
}

// SweepScenarios validates and runs a scenario list through the sweep
// pool, in order.
func SweepScenarios(workers int, scs []scenario.Scenario) ([]Result, error) {
	specs, err := SpecsFor(scs)
	if err != nil {
		return nil, err
	}
	return SweepN(workers, specs)
}

// SpecsFor converts a scenario list into sweep points, in order.
func SpecsFor(scs []scenario.Scenario) ([]Spec, error) {
	specs := make([]Spec, len(scs))
	for i, sc := range scs {
		spec, err := SpecFor(sc)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// KernelResult is the JSON view of one kernel's timing.
type KernelResult struct {
	WallSeconds       float64 `json:"wall_seconds"`
	UpdateWaitSeconds float64 `json:"update_wait_seconds"`
	Calls             int     `json:"calls"`
}

// Result is the outcome of one sweep point. All virtual times are reported
// in seconds; ElapsedMS is the real time the simulation took (zero when the
// point was served from the memo).
type Result struct {
	Name              string                  `json:"name"`
	App               string                  `json:"app"`
	Mode              string                  `json:"mode"`
	Logical           int                     `json:"logical"`
	Degree            int                     `json:"degree"`
	PhysProcs         int                     `json:"phys_procs"`
	WallSeconds       float64                 `json:"wall_seconds"`
	AppSeconds        float64                 `json:"app_seconds"`
	SectionSeconds    float64                 `json:"section_seconds"`
	UpdateWaitSeconds float64                 `json:"update_wait_seconds"`
	CopySeconds       float64                 `json:"copy_seconds"`
	Sections          int                     `json:"sections"`
	TasksRun          int                     `json:"tasks_run"`
	TasksReceived     int                     `json:"tasks_received"`
	UpdateBytes       int64                   `json:"update_bytes"`
	SimEvents         uint64                  `json:"sim_events"`
	SimProcs          int                     `json:"sim_procs"`
	Crashes           int                     `json:"crashes,omitempty"`
	ElapsedMS         float64                 `json:"elapsed_ms"`
	Memoized          bool                    `json:"memoized"`
	Kernels           map[string]KernelResult `json:"kernels,omitempty"`

	// Measure is the raw aggregate, for figure builders that need
	// sim.Time arithmetic. Memoized results share one Measure.
	Measure *Measure `json:"-"`
}

// KernelResults converts per-kernel timings to their JSON view. Shared by
// the sweep runner and the CLI reports so there is one wire schema.
func KernelResults(kernels map[string]*apputil.KernelTime) map[string]KernelResult {
	out := make(map[string]KernelResult, len(kernels))
	for name, kt := range kernels {
		out[name] = KernelResult{
			WallSeconds:       kt.Wall.Seconds(),
			UpdateWaitSeconds: kt.UpdateWait.Seconds(),
			Calls:             kt.Calls,
		}
	}
	return out
}

// Sweep runs every spec and returns the results in spec order. Points run
// concurrently on up to GOMAXPROCS workers, each worker owning its own
// sim.Engine; engines share no state, so results are identical to a serial
// run. Specs with equal content keys are simulated once and the remaining
// occurrences served from an in-memory memo.
func Sweep(specs []Spec) ([]Result, error) { return SweepN(0, specs) }

// SweepN is Sweep with an explicit worker count (0 = GOMAXPROCS).
func SweepN(workers int, specs []Spec) ([]Result, error) {
	return SweepStore(workers, nil, specs)
}

// dedupe maps each spec to the unique run that serves it: uniq is the
// distinct-simulation list, keys its content keys, and uniqOf[i] the index
// into uniq serving specs[i]. Deduplicating up front (rather than racing a
// singleflight) keeps memo behavior independent of worker scheduling —
// and, because the keys are content fingerprints, every process sweeping
// the same spec list derives the identical uniq list, which is what lets
// shards partition it by index with no coordination. The first spec
// without a key is the error.
func dedupe(specs []Spec) (uniq []Spec, keys []string, uniqOf []int, err error) {
	firstIdx := map[string]int{}
	uniqOf = make([]int, len(specs))
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			return nil, nil, nil, err
		}
		if j, ok := firstIdx[k]; ok {
			uniqOf[i] = j
			continue
		}
		firstIdx[k] = len(uniq)
		uniqOf[i] = len(uniq)
		uniq = append(uniq, s)
		keys = append(keys, k)
	}
	return uniq, keys, uniqOf, nil
}

// ForEach calls fn(w, i) once for every i in [0, n), fanned out over
// min(workers, n) goroutines (workers <= 0 means GOMAXPROCS), and returns
// when every call has. w is the Worker of the goroutine making the call:
// the simulation state it carries is that goroutine's alone, so fn may use
// it without locking. Calls complete in no particular order: callers write
// results to per-index slots and read them once ForEach returns.
func ForEach(workers, n int, fn func(w *Worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range poolSize(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w Worker
			defer w.close()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(&w, i)
			}
		}()
	}
	wg.Wait()
}

// poolSize is the goroutine count ForEach uses for n jobs.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 0)
}

// Worker is one ForEach goroutine's simulation state: a pooled engine and
// a core.Scratch, created by the worker's first simulation and shut down
// when the fan-out returns. Consecutive specs on a worker reuse the
// engine's event free list and process goroutines, the message layer's
// request/message/transfer pools, rank states and communicators, the
// replication system's tables, procs and headers, and the runners with
// their task records, instead of rebuilding them per spec; a worker that
// simulates nothing (every point a store hit, or a fan-out of ckptsim
// replays) creates neither.
type Worker struct {
	eng *sim.Engine
	sc  *core.Scratch
}

// run simulates s on the worker's engine, recording every runner's trace
// into rec when rec is non-nil. The engine is Reset after the run, so
// between specs the worker holds nothing of the last one.
func (w *Worker) run(s Spec, rec *core.TraceSet) (Result, error) {
	if w.eng == nil {
		w.eng, w.sc = sim.NewPooled(), core.NewScratch()
	}
	defer w.eng.Reset()
	return run(w.eng, w.sc, s, rec)
}

// close shuts the worker's engine down, ending its pooled goroutines.
func (w *Worker) close() {
	if w.eng != nil {
		w.eng.Shutdown()
	}
}

// SweepStore is SweepN consulting (and populating) a persistent result
// store behind the in-memory memo: a unique point found in the store skips
// simulation entirely, a simulated point is appended for later processes.
// A nil store is the plain in-memory sweep. Results are identical either
// way — stored payloads round-trip the Result and its Measure exactly —
// except that a store-served point reports the ElapsedMS of the run that
// originally simulated it (the memo overlay below is applied after store
// lookup, so Memoized flags are untouched by store warmth).
func SweepStore(workers int, st *store.Store, specs []Spec) ([]Result, error) {
	return PopulateStore(workers, st, store.Shard{}, specs)
}

// PopulateStore is SweepStore restricted to the unique points shard sh
// owns: the build phase of a multi-process sweep. Every shard derives the
// identical deduplicated point list (the memo key is content-addressed)
// and claims the unique points whose index it owns — an exact partition,
// so N shards together simulate each unique point exactly once and their
// merged store lets a final plain run emit the single-process JSON with
// zero simulations. An inactive shard owns every point.
//
// It returns the results in spec order; a spec that resolves to a unique
// point the shard does not own is left zero.
func PopulateStore(workers int, st *store.Store, sh store.Shard, specs []Spec) ([]Result, error) {
	uniq, keys, uniqOf, err := dedupe(specs)
	if err != nil {
		return nil, err
	}
	claimed := make([]bool, len(uniq))
	var todo []int // the claimed unique points
	for j := range uniq {
		if claimed[j] = !sh.Active() || sh.Owns(j); claimed[j] {
			todo = append(todo, j)
		}
	}
	runs := make([]Result, len(uniq))
	errs := make([]error, len(uniq))
	Progress.Plan(len(todo))
	ForEach(workers, len(todo), func(w *Worker, k int) {
		defer Progress.Done()
		j := todo[k]
		runs[j], errs[j] = w.getOrRun(st, keys[j], uniq[j], nil)
	})

	// Report the first failure in spec order, so the error is the same
	// whatever the worker count.
	for i, s := range specs {
		if err := errs[uniqOf[i]]; err != nil {
			return nil, fmt.Errorf("sweep %q: %w", s.Name, err)
		}
	}

	out := make([]Result, len(specs))
	seen := make([]bool, len(uniq))
	for i, s := range specs {
		j := uniqOf[i]
		if !claimed[j] {
			continue
		}
		r := runs[j]
		r.Name = s.Name
		// The memo can serve one spec from another mode's identical
		// simulation (ccr <-> native); the reported mode is always the
		// spec's own.
		r.Mode = s.Mode.String()
		if seen[j] {
			r.Memoized = true
			r.ElapsedMS = 0
		}
		seen[j] = true
		out[i] = r
	}
	return out, nil
}

// getOrRun serves one unique point from the store under its content key,
// or simulates it on the worker (recording its traces into rec when
// non-nil) and stores the result. A nil store always simulates.
func (w *Worker) getOrRun(st *store.Store, key string, s Spec, rec *core.TraceSet) (Result, error) {
	addr := ""
	if st != nil {
		addr = store.Key(key)
	}
	wire, _, err := store.GetOrCompute(st, resultKind, addr, func() (resultWire, error) {
		r, err := w.run(s, rec)
		if err != nil {
			return resultWire{}, err
		}
		return encodeResult(r), nil
	})
	return wire.Result, err
}

// RunStored is a one-spec SweepStore on the worker, for a caller that
// already holds the spec's content key (Spec.Key), so the spec is not
// keyed again. With record set, a store miss also records the run's
// traces (RecordTraces's output, when s is the classic twin RecordingKey
// names) and returns them; a store hit simulates nothing and returns none.
func (w *Worker) RunStored(st *store.Store, key string, s Spec, record bool) (Result, *core.TraceSet, error) {
	var rec *core.TraceSet
	if record {
		rec = core.NewTraceSet(s.Logical)
	}
	Progress.Plan(1)
	res, err := w.getOrRun(st, key, s, rec)
	Progress.Done()
	if err != nil {
		return Result{}, nil, fmt.Errorf("sweep %q: %w", s.Name, err)
	}
	if rec != nil && !rec.Complete() {
		rec = nil
	}
	// As in SweepStore: a stored record may have been computed for a spec
	// of another name, and the reported mode is always the spec's own.
	res.Name, res.Mode = s.Name, s.Mode.String()
	return res, rec, nil
}

// run simulates one sweep point, recording every runner's trace into rec
// when rec is non-nil; recording observes the run without changing it.
// eng, when non-nil, is a Reset pooled engine, and sc a scratch shared
// across the worker's specs; nil runs on private ones. The simulated
// outcome is identical either way — reuse recycles event nodes,
// goroutines, message buffers and the world, replication and runner
// state, all reset, never state the simulation can observe.
func run(eng *sim.Engine, sc *core.Scratch, s Spec, rec *core.TraceSet) (Result, error) {
	main := s.App.main
	if s.Replay != nil {
		main = replayMain(s.Replay)
	}
	if rec != nil {
		main = recordingMain(main, rec)
	}
	crashes := 0
	if s.Fault != nil {
		crashes = len(s.Fault.Crashes)
	}
	if crashes > 0 && !s.Mode.Replicated() {
		return Result{}, fmt.Errorf("spec %q: fault schedule requires a replicated mode", s.Name)
	}
	start := time.Now()
	c, err := NewCluster(ClusterConfig{
		Logical: s.Logical, Mode: s.Mode, Degree: s.Degree,
		Net: s.Net, Machine: s.Machine,
		IntraOpts: core.Options{Mode: s.Inout},
		SendLog:   crashes > 0,
		Engine:    eng, Scratch: sc,
	})
	if err != nil {
		return Result{}, err
	}
	if crashes > 0 {
		s.Fault.Install(c.E, c.Sys)
	}
	m := &Measure{Mode: s.Mode, Kernels: map[string]*apputil.KernelTime{}}
	var firstErr error
	// Wall time is the completion of the last (surviving) replica, not the
	// engine's queue-drain time: a fault schedule may arm crashes beyond
	// the program's end (e.g. a campaign horizon larger than the actual
	// makespan), and those no-op events must not stretch the measured run.
	var lastEnd sim.Time
	c.Launch(func(rt core.Runner) {
		total, kernels, st, err := main(rt)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", rt.LogicalRank(), err)
			}
			return
		}
		m.add(total, kernels, st)
		if now := rt.Now(); now > lastEnd {
			lastEnd = now
		}
	})
	if _, err := c.Run(); err != nil {
		return Result{}, err
	}
	phys := c.PhysProcs()
	if sc != nil {
		// The cluster dies with this call; hand its state back to the
		// worker's scratch so the next spec starts warm.
		c.Reclaim()
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	if rec != nil && !rec.Complete() {
		return Result{}, fmt.Errorf("spec %q: trace recording left ranks without a trace", s.Name)
	}
	m.finish(lastEnd, phys)

	es := c.E.Stats()
	r := Result{
		Name:              s.Name,
		App:               s.App.Name,
		Mode:              s.Mode.String(),
		Logical:           s.Logical,
		Degree:            scenario.EffectiveDegree(s.Mode, s.Degree),
		PhysProcs:         m.PhysProcs,
		WallSeconds:       m.Wall.Seconds(),
		AppSeconds:        m.AppTotal.Seconds(),
		SectionSeconds:    m.Stats.SectionTime.Seconds(),
		UpdateWaitSeconds: m.Stats.UpdateWait.Seconds(),
		CopySeconds:       m.Stats.CopyTime.Seconds(),
		Sections:          m.Stats.Sections,
		TasksRun:          m.Stats.TasksRun,
		TasksReceived:     m.Stats.TasksReceived,
		UpdateBytes:       m.Stats.UpdateBytes,
		SimEvents:         es.Events,
		SimProcs:          es.Procs,
		Crashes:           crashes,
		ElapsedMS:         float64(time.Since(start).Microseconds()) / 1e3,
		Kernels:           KernelResults(m.Kernels),
		Measure:           m,
	}
	return r, nil
}
