package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/perf"
	"repro/internal/simnet"
)

// Grid declares experiment axes and expands to the cross product of
// scenarios, using each app's registered paper protocol (weak-scaling vs
// fixed-size, per-degree problem growth). It is the declarative form of
// the sweep CLI's grid flags, and the "grid" object of scenario files.
type Grid struct {
	// Apps names the applications of the grid (registered names).
	Apps []string `json:"apps"`
	// Modes defaults to all three (native, classic, intra).
	Modes []Mode `json:"modes,omitempty"`
	// Procs is the process-count axis: the physical budget for
	// weak-scaling apps, the logical rank count for fixed-size apps.
	Procs []int `json:"procs"`
	// Degrees is the replication-degree axis (default [2]). Native points
	// ignore it: one native scenario per process count.
	Degrees []int `json:"degrees,omitempty"`
	// Nets / Machines name platform models ("" = paper
	// default). Default: one entry, the paper platform.
	Nets     []string `json:"nets,omitempty"`
	Machines []string `json:"machines,omitempty"`
	// Iters / Tasks override the solver iteration (step) count and tasks
	// per section of every point (0 = the figure's defaults).
	Iters int `json:"iters,omitempty"`
	Tasks int `json:"tasks,omitempty"`
	// Intra applies the same intra-engine options to every point.
	Intra *IntraOptions `json:"intra,omitempty"`
	// Ckpt applies the same checkpoint/restart parameters to every
	// ccr-mode point (an error when the grid has no ccr mode).
	Ckpt *CkptOptions `json:"ckpt,omitempty"`
}

// maxGridPoints caps the cross product a grid may declare. Checked-in
// grids expand to a dozen points or fewer; a product past the cap is a
// mistake (an axis pasted over and over), and expanding it would cost
// memory and time in proportion: a 1.6 KB file declared 119,200 points.
const maxGridPoints = 10000

// Expand builds the cross product, validating every point. Scenario names
// follow the CLI convention app[/net][/machine]/mode/pN[/dD], with the
// net and machine segments present only when that axis has several values.
func (g Grid) Expand() ([]Scenario, error) {
	if len(g.Apps) == 0 {
		return nil, fmt.Errorf("scenario: grid has no apps")
	}
	if len(g.Procs) == 0 {
		return nil, fmt.Errorf("scenario: grid has no process counts")
	}
	modes := g.Modes
	if len(modes) == 0 {
		modes = Modes
	}
	degrees := g.Degrees
	if len(degrees) == 0 {
		degrees = []int{DefaultDegree}
	}
	nets := g.Nets
	if len(nets) == 0 {
		nets = []string{""}
	}
	machines := g.Machines
	if len(machines) == 0 {
		machines = []string{""}
	}
	points := 1
	for _, n := range []int{len(g.Apps), len(nets), len(machines), len(g.Procs), len(modes), len(degrees)} {
		if points > maxGridPoints/n {
			return nil, fmt.Errorf("scenario: grid crosses more than %d points", maxGridPoints)
		}
		points *= n
	}
	for _, p := range g.Procs {
		if p < 1 {
			return nil, fmt.Errorf("scenario: grid process count %d", p)
		}
	}
	for _, d := range degrees {
		if d < 1 {
			return nil, fmt.Errorf("scenario: grid degree %d", d)
		}
	}
	if g.Ckpt.norm() != nil {
		hasCCR := false
		for _, m := range modes {
			hasCCR = hasCCR || m == CCR
		}
		if !hasCCR {
			return nil, fmt.Errorf("scenario: grid sets ckpt options but has no ccr mode")
		}
	}

	var out []Scenario
	for _, appName := range g.Apps {
		ent, err := AppByName(appName)
		if err != nil {
			return nil, err
		}
		if ent.Paper == nil {
			return nil, fmt.Errorf("scenario: app %q has no paper grid binding", appName)
		}
		for _, net := range nets {
			for _, machine := range machines {
				for _, p := range g.Procs {
					for _, mode := range modes {
						for _, d := range degrees {
							if !mode.Replicated() && d != degrees[0] {
								continue // no replicas (native, ccr); one point per p
							}
							sc, err := g.point(ent, net, machine, p, mode, d,
								len(nets) > 1, len(machines) > 1)
							if err != nil {
								return nil, err
							}
							out = append(out, sc)
						}
					}
				}
			}
		}
	}
	for _, sc := range out {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// point builds one grid scenario under the app's paper protocol.
func (g Grid) point(ent AppEntry, net, machine string, p int, mode Mode, d int,
	nameNet, nameMachine bool) (Scenario, error) {
	logical := p
	name := ent.Name
	if nameNet {
		name += "/" + PlatformLabel(net, simnet.DefaultNetName)
	}
	if nameMachine {
		name += "/" + PlatformLabel(machine, perf.DefaultMachineName)
	}
	name = fmt.Sprintf("%s/%s/p%d", name, mode, p)
	cfg := ent.Paper(g.Iters, g.Tasks)
	if mode.Replicated() {
		if ent.WeakScaling {
			if p%d != 0 {
				return Scenario{}, fmt.Errorf("scenario: %d processes are not divisible by degree %d", p, d)
			}
			logical = p / d
		}
		if ent.GrowPerDegree != nil {
			ent.GrowPerDegree(cfg, d)
		}
		name = fmt.Sprintf("%s/d%d", name, d)
	}
	if logical < 1 {
		return Scenario{}, fmt.Errorf("scenario: %d processes cannot host degree %d replication", p, d)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: marshal %s config: %w", ent.Name, err)
	}
	sc := Scenario{
		Name: name, App: ent.Name, Config: raw,
		Mode: mode, Logical: logical, Degree: d,
		Net: net, Machine: machine, Intra: g.Intra,
	}
	if mode == CCR {
		sc.Degree = 0
		sc.Intra = nil // the intra engine never runs in ccr mode
		sc.Ckpt = g.Ckpt.norm()
	}
	return sc, nil
}

// PlatformLabel names a platform axis value for display: the model's
// name, or the default model's name when the value is empty.
func PlatformLabel(name, def string) string {
	if name == "" {
		return def
	}
	return name
}

// PlatformLabels derives the net and machine labels of a scenario list:
// the unique names in first-appearance order, comma-joined. Every output
// path (tables, JSON envelopes) shares them, whether the scenarios came
// from flags, a grid or an explicit list.
func PlatformLabels(scs []Scenario) (net, machine string) {
	var nets, machines []string
	seenNet, seenMachine := map[string]bool{}, map[string]bool{}
	for _, sc := range scs {
		n := PlatformLabel(sc.Net, simnet.DefaultNetName)
		if sc.NetConfig != nil {
			n = "custom"
		}
		if !seenNet[n] {
			seenNet[n] = true
			nets = append(nets, n)
		}
		m := PlatformLabel(sc.Machine, perf.DefaultMachineName)
		if sc.MachineConfig != nil {
			m = "custom"
		}
		if !seenMachine[m] {
			seenMachine[m] = true
			machines = append(machines, m)
		}
	}
	return strings.Join(nets, ","), strings.Join(machines, ",")
}
