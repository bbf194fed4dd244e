package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/sim"
)

// Table is a regenerated figure: the same series the paper plots, as rows.
// The JSON form is what `cmd/sweep -figures ... -json` emits.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Measure aggregates one mode's run: cluster wall time plus per-kernel and
// runtime-stat averages over every replica's view.
type Measure struct {
	Mode      Mode
	PhysProcs int
	Wall      sim.Time // wall time of the whole run (last process end)
	AppTotal  sim.Time // average in-app total time
	Kernels   map[string]*apputil.KernelTime
	Stats     core.Stats
	samples   int
}

func (m *Measure) add(total sim.Time, kernels map[string]*apputil.KernelTime, st core.Stats) {
	m.samples++
	m.AppTotal += total
	for name, kt := range kernels {
		agg := m.Kernels[name]
		if agg == nil {
			agg = &apputil.KernelTime{}
			m.Kernels[name] = agg
		}
		agg.Wall += kt.Wall
		agg.UpdateWait += kt.UpdateWait
		agg.Calls += kt.Calls
	}
	m.Stats.SectionTime += st.SectionTime
	m.Stats.SectionCompute += st.SectionCompute
	m.Stats.UpdateWait += st.UpdateWait
	m.Stats.CopyTime += st.CopyTime
	m.Stats.OutsideCompute += st.OutsideCompute
	m.Stats.Sections += st.Sections
	m.Stats.TasksRun += st.TasksRun
	m.Stats.TasksReceived += st.TasksReceived
	m.Stats.UpdateBytes += st.UpdateBytes
}

func (m *Measure) finish(wall sim.Time, phys int) {
	m.Wall = wall
	m.PhysProcs = phys
	if m.samples == 0 {
		return
	}
	n := sim.Time(m.samples)
	m.AppTotal /= n
	for _, kt := range m.Kernels {
		kt.Wall /= n
		kt.UpdateWait /= n
		kt.Calls /= m.samples
	}
	m.Stats.SectionTime /= n
	m.Stats.SectionCompute /= n
	m.Stats.UpdateWait /= n
	m.Stats.CopyTime /= n
	m.Stats.OutsideCompute /= n
	m.Stats.Sections /= m.samples
	m.Stats.TasksRun /= m.samples
	m.Stats.TasksReceived /= m.samples
	m.Stats.UpdateBytes /= int64(m.samples)
}

// appMain runs the application on one logical process and reports its
// timings (total, per-kernel, stats).
type appMain func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error)

// Efficiency computes the paper's workload efficiency E = Tsolve/Twallclock
// normalized by resources: native and mode may use different numbers of
// physical processes (Fig 6) or the same (Fig 5).
func Efficiency(native, mode *Measure) float64 {
	return float64(native.AppTotal) * float64(native.PhysProcs) /
		(float64(mode.AppTotal) * float64(mode.PhysProcs))
}

func secs(t sim.Time) string { return fmt.Sprintf("%.3f", t.Seconds()) }

func ratio(v, base sim.Time) string { return fmt.Sprintf("%.2f", float64(v)/float64(base)) }
