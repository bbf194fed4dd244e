// Command perfbench is the repository's benchmark. It runs one of five
// seeded workloads (figure sweep, failure campaign, job stream, adaptive
// exploration, store populate and merge) and prints one JSON result line.
// Untraced, it reports end-to-end metrics as medians over repetitions;
// traced, it reports per-layer time, counts and unit costs. See README.md.
//
//	go run . --workload campaign --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload   string
	seed       int64
	seconds    float64
	traceOut   string // Chrome trace-event JSON of the traced run
	cpuprofile string // CPU profile of the traced repetition
	tiny       bool   // package tests: small inputs
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: figures, campaign, jobstream, explore or store")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (2 is held out)")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the untraced run repeats the workload")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "with -trace 1, write a CPU profile of the traced repetition to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(o.workload)
	if !ok || fs.NArg() > 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload figures|campaign|jobstream|explore|store and -trace 0|1\n")
		return 2
	}
	run := measure
	if trace == 1 {
		run = traced
	}
	res, err := run(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// checker compares every repetition's normalized output with the first
// one's and counts the units attempted and failed.
type checker struct {
	stderr            io.Writer
	ref               *[sha256.Size]byte
	refUnits          int
	attempted, failed int
}

func (c *checker) check(what string, o outcome, err error) {
	if err != nil {
		n := max(o.units, c.refUnits, 1)
		c.attempted += n
		c.failed += n
		fmt.Fprintf(c.stderr, "perfbench: %s repetition failed: %v\n", what, err)
		return
	}
	c.attempted += o.units
	sum := sha256.Sum256(o.out)
	if c.ref == nil {
		c.ref, c.refUnits = &sum, o.units
		return
	}
	if sum != *c.ref {
		c.failed += o.units
		fmt.Fprintf(c.stderr, "perfbench: %s repetition's output differs from the first repetition's\n", what)
	}
}

func (c *checker) result(m *metricSet) result {
	return result{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   m.vals,
	}
}

// minReps is the fewest timed repetitions an untraced run makes.
const minReps = 3

// setupSlice is how long the untraced run keeps setting the workload up
// before each repetition. Set-up takes about a millisecond, so one sample
// is mostly noise; setup_s is the median of samples spread over the whole
// run, which a short burst of machine noise cannot move.
const setupSlice = 50 * time.Millisecond

// sampleSetup sets the workload up for about setupSlice, appending each
// set-up's time to samples, and returns the first job it set up.
func sampleSetup(w workload, o options, samples []float64) ([]float64, *job, error) {
	runtime.GC()
	var first *job
	for start := time.Now(); first == nil || time.Since(start) < setupSlice; {
		t := time.Now()
		j, err := w.setup(o.seed, o.tiny)
		if err != nil {
			return samples, nil, fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, time.Since(t).Seconds())
		if first == nil {
			first = j
		}
	}
	return samples, first, nil
}

// measure is the untraced run: the end-to-end metrics. It runs on one
// processor: the simulator hands control between goroutines, and with a
// second processor those hand-offs and the concurrent collector make
// repetition times about twice as noisy.
func measure(w workload, o options, stderr io.Writer) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setups, j, err := sampleSetup(w, o, nil)
	if err != nil {
		return result{}, err
	}

	ck := &checker{stderr: stderr}
	// The first repetition warms the engine pools, the heap and the CPU
	// caches and fixes the reference output; it is checked, not timed, but
	// it counts against the run's --seconds.
	start := time.Now()
	out, err := j.run(newRep(1, nil))
	ck.check("warm-up", out, err)
	var walls, rates []float64
	for len(walls) < minReps || time.Since(start).Seconds() < o.seconds {
		if setups, _, err = sampleSetup(w, o, setups); err != nil {
			return result{}, err
		}
		t := time.Now()
		out, err := j.run(newRep(1, nil))
		wall := time.Since(t).Seconds()
		ck.check(fmt.Sprintf("timed #%d", len(walls)+1), out, err)
		walls = append(walls, wall)
		rates = append(rates, float64(out.units)/wall)
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	m := newMetricSet(endToEnd)
	for name, v := range map[string]float64{
		"units_per_s": quantile(rates, 0.5),
		"wall_s":      quantile(walls, 0.5),
		"setup_s":     quantile(setups, 0.5),
		"peak_rss_mb": rss,
	} {
		if err := m.set(name, v); err != nil {
			return result{}, err
		}
	}
	return ck.result(m), nil
}

// traced is the traced run: after a warm-up repetition, one untraced
// repetition (counts, GC and the tracing-overhead baseline), one traced
// repetition (spans), one untraced repetition on two workers and two
// processors (parallel efficiency), then the micro-benchmarks. All
// repetitions must produce the same output.
func traced(w workload, o options, stderr io.Writer) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := newTracer()
	var j *job
	if err := tr.do("scenario.expand", func() (err error) {
		j, err = w.setup(o.seed, o.tiny)
		return err
	}); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	run := j.run
	if j.attributed != nil {
		run = j.attributed
	}
	ck := &checker{stderr: stderr}
	out, err := run(newRep(1, nil))
	ck.check("warm-up", out, err)

	xa := newRep(1, nil)
	rt0 := readRuntime()
	done0, _ := experiments.Progress.Snapshot()
	start := time.Now()
	outA, err := run(xa)
	wallA := time.Since(start).Seconds()
	done1, _ := experiments.Progress.Snapshot()
	rt1 := readRuntime()
	ck.check("untraced", outA, err)

	xb := newRep(1, tr)
	stopProfile, err := startProfile(o.cpuprofile)
	if err != nil {
		return result{}, err
	}
	var outB outcome
	start = time.Now()
	err = tr.do("perfbench.rep", func() (err error) {
		outB, err = run(xb)
		return err
	})
	wallB := time.Since(start).Seconds()
	if perr := stopProfile(); perr != nil {
		return result{}, perr
	}
	ck.check("traced", outB, err)

	runtime.GOMAXPROCS(2)
	start = time.Now()
	outC, err := run(newRep(2, nil))
	wallC := time.Since(start).Seconds()
	runtime.GOMAXPROCS(1)
	ck.check("two-worker", outC, err)

	m := newMetricSet(perLayer)
	var setErr error
	set := func(name string, v float64) {
		if setErr == nil {
			setErr = m.set(name, v)
		}
	}
	for name, v := range xa.counts {
		set(name, v)
	}
	set("experiments.runs", float64(done1-done0))
	if n := len(xa.runMS); n > 0 {
		set("experiments.run_ms.n", float64(n))
		set("experiments.run_ms.p50", quantile(xa.runMS, 0.5))
		// A 90th percentile needs ten samples beyond it.
		if n >= 100 {
			set("experiments.run_ms.p90", quantile(xa.runMS, 0.9))
		}
	}
	set("experiments.parallel_eff", wallA/(2*wallC))
	set("trace.overhead_frac", (wallB-wallA)/wallA)
	self := tr.selfSeconds()
	for name, s := range self {
		if name == "perfbench.rep" {
			set("unattributed_s", s) // repetition time outside every layer span
		} else {
			set(name+"_s", s)
		}
	}
	set("store.merge_s", self["store.open"]+self["store.rerun"]+self["store.verify"]+self["store.compact"])
	units := max(outA.units, 1)
	set("gc.alloc_kb_per_unit", float64(rt1.allocBytes-rt0.allocBytes)/1024/float64(units))
	set("gc.cycles", float64(rt1.cycles-rt0.cycles))
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		set("gc.cpu_frac", (rt1.gcCPU-rt0.gcCPU)/cpu)
	}
	for _, name := range slices.Sorted(maps.Keys(micros)) {
		r, err := runMicro(micros[name], o.tiny)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		set(name+".ns", float64(r.T.Nanoseconds())/float64(r.N))
		set(name+".allocs", float64(r.MemAllocs)/float64(r.N))
		set(name+".bytes", float64(r.MemBytes)/float64(r.N))
	}
	set("sim.est_s", m.vals["sim.events"].Value*m.vals["sim.event.ns"].Value/1e9)
	if setErr != nil {
		return result{}, setErr
	}

	if o.traceOut != "" {
		if err := writeFile(o.traceOut, tr.writeChrome); err != nil {
			return result{}, err
		}
	}
	return ck.result(m), nil
}

// quantile interpolates the q-quantile of xs linearly between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runtimeSample is the Go runtime's cumulative GC and CPU accounting.
type runtimeSample struct {
	cycles, allocBytes uint64
	gcCPU, totalCPU    float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

// startProfile starts a CPU profile into path ("" = none) and returns the
// function that stops it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
