package main

import (
	"encoding/json"
	"io"
	"strings"
	"time"

	"repro/internal/experiments"
)

// span is one timed call into a layer. Its name is layer.call; the layer
// is the repository package the call enters.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 at the root
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// tracer keeps spans in memory for one goroutine: the benchmark calls the
// layers sequentially, and the worker pools below those calls are timed
// as part of the call that started them.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	t.open = append(t.open, i)
	err := fn()
	t.spans[i].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
	return err
}

// selfSeconds sums, per span name, each span's duration minus the part of
// it its children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.name] += self[i].Seconds()
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event; the file opens in
// Perfetto (ui.perfetto.dev) or chrome://tracing, which nest the events of
// one thread by time.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(w io.Writer) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		ev := traceEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
		}
		if s.parent >= 0 {
			ev.Args = map[string]string{"parent": t.spans[s.parent].name}
		}
		events[i] = ev
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}

// rep is the context of one repetition: the worker count the layers get,
// the tracer (nil when untraced) and the counts the workload reads from
// the layers' public results and counters.
type rep struct {
	workers int
	tr      *tracer
	counts  map[string]float64
	runMS   []float64 // real time of each simulated sweep point seen
}

func newRep(workers int, tr *tracer) *rep {
	return &rep{workers: workers, tr: tr, counts: map[string]float64{}}
}

// span times fn as a call into a layer when the repetition is traced.
func (x *rep) span(name string, fn func() error) error {
	if x.tr == nil {
		return fn()
	}
	return x.tr.do(name, fn)
}

func (x *rep) add(name string, v float64) { x.counts[name] += v }

// sweep reads what sweep results reveal about the layers below them. A
// memo-served result repeats another's simulation, so it counts only as a
// memo hit.
func (x *rep) sweep(res []experiments.Result) {
	for _, r := range res {
		if r.Memoized {
			x.add("experiments.memo_hits", 1)
			continue
		}
		x.runMS = append(x.runMS, r.ElapsedMS)
		x.add("sim.events", float64(r.SimEvents))
		x.add("sim.procs", float64(r.SimProcs))
		x.add("replication.crashes", float64(r.Crashes))
		x.add("core.sections", float64(r.Sections))
		x.add("core.tasks_run", float64(r.TasksRun))
		x.add("core.tasks_received", float64(r.TasksReceived))
		x.add("core.update_mb", float64(r.UpdateBytes)/1e6)
		for _, k := range r.Kernels {
			x.add("kernels.calls", float64(k.Calls))
		}
	}
}
