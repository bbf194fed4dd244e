package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// Figure is one regenerable figure of the evaluation: a scenario generator
// (nil for analytic tables) plus a renderer that turns the swept results
// back into the paper's table. The generator/renderer split is what lets a
// checked-in scenario file reproduce a figure exactly: the file carries
// the generated scenarios, and the renderer is looked up by id.
type Figure struct {
	ID          string
	Description string
	// Scenarios declares the figure's experiment points. procs and iters
	// override the paper scale when positive. Nil for analytic figures.
	Scenarios func(procs, iters int) ([]scenario.Scenario, error)
	// Render builds the figure table from the scenarios and their results
	// (in scenario order). Analytic figures are called with nil, nil.
	Render func(scs []scenario.Scenario, res []Result) (*Table, error)
}

// Run regenerates the figure: declare scenarios, sweep, render.
func (f Figure) Run(procs, iters int) (*Table, error) {
	if f.Scenarios == nil {
		return f.Render(nil, nil)
	}
	scs, err := f.Scenarios(procs, iters)
	if err != nil {
		return nil, err
	}
	res, err := SweepScenarios(0, scs)
	if err != nil {
		return nil, err
	}
	return f.Render(scs, res)
}

// FigureIDs lists every regenerable figure of the evaluation, in
// presentation order. "all" in the CLIs expands to this list.
var FigureIDs = []string{
	"fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig6d",
	"ckpt", "granularity", "inout", "degree",
}

// figures is the registry the CLIs, scenario files and tests share.
var figures = map[string]Figure{
	"fig5a": {
		ID:          "fig5a",
		Description: "HPCCG kernels (waxpby/ddot/sparsemv), 512 physical processes",
		Scenarios:   fig5aScenarios,
		Render:      fig5aRender,
	},
	"fig5b": {
		ID:          "fig5b",
		Description: "HPCCG weak scaling, 128/256/512 physical processes",
		Scenarios:   fig5bScenarios,
		Render:      fig5bRender,
	},
	"fig6a": {
		ID:          "fig6a",
		Description: "AMG, 27-point stencil, PCG",
		Scenarios: func(procs, iters int) ([]scenario.Scenario, error) {
			return fig6Scenarios("fig6a", "amg", Fig6aConfig(), orDefault(procs, 252)), nil
		},
		Render: fig6Render("fig6a", "AMG (27-point stencil, PCG solver)",
			"paper: eff 1 / 0.48 / 0.61, sections = 62% of native time"),
	},
	"fig6b": {
		ID:          "fig6b",
		Description: "AMG, 7-point stencil, GMRES",
		Scenarios: func(procs, iters int) ([]scenario.Scenario, error) {
			return fig6Scenarios("fig6b", "amg", Fig6bConfig(), orDefault(procs, 252)), nil
		},
		Render: fig6Render("fig6b", "AMG (7-point stencil, GMRES solver)",
			"paper: eff 1 / 0.49 / 0.59, sections = 42% of native time"),
	},
	"fig6c": {
		ID:          "fig6c",
		Description: "GTC particle-in-cell",
		Scenarios: func(procs, iters int) ([]scenario.Scenario, error) {
			return fig6Scenarios("fig6c", "gtc", Fig6cConfig(), orDefault(procs, 256)), nil
		},
		Render: fig6Render("fig6c", "GTC (gyrokinetic particle-in-cell)",
			"paper: eff 1 / 0.49 / 0.71, sections = 75% of native time, inout copy ~6% on affected tasks"),
	},
	"fig6d": {
		ID:          "fig6d",
		Description: "MiniGhost 27-point stencil",
		Scenarios: func(procs, iters int) ([]scenario.Scenario, error) {
			return fig6Scenarios("fig6d", "minighost", Fig6dConfig(), orDefault(procs, 256)), nil
		},
		Render: fig6Render("fig6d", "MiniGhost (3D 27-point stencil)",
			"paper: eff 1 / 0.49 / 0.51, sections = 10% of native time"),
	},
	"ckpt": {
		ID:          "ckpt",
		Description: "checkpoint/restart vs replication model (Section II)",
		Render: func([]scenario.Scenario, []Result) (*Table, error) {
			return CkptModelTable(), nil
		},
	},
	"granularity": {
		ID:          "granularity",
		Description: "ablation: tasks per section (Section V-B discussion)",
		Scenarios:   granularityScenarios,
		Render:      granularityRender,
	},
	"inout": {
		ID:          "inout",
		Description: "ablation: copy-restore vs atomic update application (Section III-B2)",
		Scenarios:   inoutScenarios,
		Render:      inoutRender,
	},
	"degree": {
		ID:          "degree",
		Description: "extension: replication degree 1/2/3 on a constant problem",
		Scenarios:   degreeScenarios,
		Render:      degreeRender,
	},
}

// FigureDescriptions maps figure ids to one-line summaries for CLI
// listings, derived from the registry so there is one source of truth.
var FigureDescriptions = func() map[string]string {
	out := make(map[string]string, len(figures))
	for id, f := range figures {
		out[id] = f.Description
	}
	return out
}()

// FigureByID looks a figure up by id.
func FigureByID(id string) (Figure, error) {
	f, ok := figures[id]
	if !ok {
		return Figure{}, fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	return f, nil
}

// RenderFigure renders already-swept results with the named figure's table
// builder: the path scenario files with a "figure" binding go through.
func RenderFigure(id string, scs []scenario.Scenario, res []Result) (*Table, error) {
	f, err := FigureByID(id)
	if err != nil {
		return nil, err
	}
	if f.Scenarios == nil {
		return nil, fmt.Errorf("figure %q is analytic: it has no scenarios to render", id)
	}
	return f.Render(scs, res)
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// RunFigure regenerates one figure by id, using the paper-scale defaults.
// procs overrides the physical process count and iters the solver
// iteration/step count when positive.
func RunFigure(id string, procs, iters int) (*Table, error) {
	f, err := FigureByID(id)
	if err != nil {
		return nil, err
	}
	return f.Run(procs, iters)
}
