// Command hpccg runs the HPCCG mini-application on the simulated cluster,
// mirroring the original Mantevo binary's interface (nx ny nz) with added
// fault-tolerance controls.
//
// Examples:
//
//	hpccg -nx 16 -ny 16 -nz 16 -procs 64 -mode intra
//	hpccg -mode intra -kill 1:0@0.5   # crash replica lane 0 of rank 1 at 50% of the ref runtime
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apps/hpccg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	nx := flag.Int("nx", 16, "local grid x extent")
	ny := flag.Int("ny", 16, "local grid y extent")
	nz := flag.Int("nz", 16, "local grid z extent")
	iters := flag.Int("iters", 25, "CG iterations")
	procs := flag.Int("procs", 16, "physical processes")
	tasks := flag.Int("tasks", 8, "tasks per intra-parallel section")
	modeName := flag.String("mode", "intra", "native | classic | intra")
	kill := flag.String("kill", "", "crash spec rank:lane@frac (replicated modes only)")
	jsonOut := flag.Bool("json", false, "emit the run report as JSON")
	flag.Parse()
	asJSON = *jsonOut

	mode, err := scenario.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpccg: %v\n", err)
		os.Exit(2)
	}

	cfg := hpccg.Config{
		Nx: *nx, Ny: *ny, Nz: *nz,
		Iters: *iters, Tasks: *tasks, Scale: 1, PlaneScale: 1,
	}
	logical := *procs
	if mode.Replicated() {
		logical = *procs / 2
	}
	if logical < 1 {
		fmt.Fprintln(os.Stderr, "hpccg: need at least 1 logical process")
		os.Exit(2)
	}

	var sched *fault.Schedule
	if *kill != "" {
		if !mode.Replicated() {
			fmt.Fprintln(os.Stderr, "hpccg: -kill requires a replicated mode")
			os.Exit(2)
		}
		rank, lane, frac, err := parseKill(*kill, logical)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpccg: bad -kill spec %q: %v\n", *kill, err)
			os.Exit(2)
		}
		// Reference runtime (an extra fault-free simulation), to place the
		// crash fraction.
		refWall := run(mode, logical, cfg, nil, false)
		sched = &fault.Schedule{Crashes: []fault.Crash{{
			Logical: rank, Lane: lane, Time: sim.Time(float64(refWall) * frac),
		}}}
		run(mode, logical, cfg, sched, true)
		return
	}
	run(mode, logical, cfg, nil, true)
}

// parseKill parses a -kill spec "rank:lane@frac" for a run of logical
// ranks at the default replication degree. The crash must name an existing
// replica, and frac must be finite and non-negative: the engine clamps an
// event in the past to t=0, so a negative fraction would kill the replica
// before it starts.
func parseKill(spec string, logical int) (rank, lane int, frac float64, err error) {
	replica, fracText, ok := strings.Cut(spec, "@")
	rankText, laneText, ok2 := strings.Cut(replica, ":")
	if !ok || !ok2 {
		return 0, 0, 0, errors.New("want rank:lane@frac")
	}
	if rank, err = strconv.Atoi(rankText); err != nil || rank < 0 || rank >= logical {
		return 0, 0, 0, fmt.Errorf("rank %q is not in [0, %d)", rankText, logical)
	}
	if lane, err = strconv.Atoi(laneText); err != nil || lane < 0 || lane >= scenario.DefaultDegree {
		return 0, 0, 0, fmt.Errorf("lane %q is not in [0, %d)", laneText, scenario.DefaultDegree)
	}
	frac, err = strconv.ParseFloat(fracText, 64)
	if err != nil || frac < 0 || math.IsInf(frac, 0) || math.IsNaN(frac) {
		return 0, 0, 0, fmt.Errorf("fraction %q is not a finite number >= 0", fracText)
	}
	return rank, lane, frac, nil
}

func run(mode experiments.Mode, logical int, cfg hpccg.Config, sched *fault.Schedule, report bool) sim.Time {
	cluster, err := experiments.NewCluster(experiments.ClusterConfig{
		Logical: logical,
		Mode:    mode,
		SendLog: sched != nil,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccg:", err)
		os.Exit(1)
	}
	if sched != nil {
		sched.Install(cluster.E, cluster.Sys)
		for _, c := range sched.Crashes {
			if !asJSON {
				fmt.Printf("arming crash of replica (rank %d, lane %d) at t=%v\n", c.Logical, c.Lane, c.Time)
			}
		}
	}
	var res *hpccg.Result
	rankFailed := false
	cluster.Launch(func(rt core.Runner) {
		r, err := hpccg.Run(rt, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: %v\n", rt.LogicalRank(), err)
			rankFailed = true
			return
		}
		if rt.LogicalRank() == 0 && res == nil {
			res = r
		}
	})
	wall, err := cluster.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccg:", err)
		os.Exit(1)
	}
	if rankFailed {
		fmt.Fprintln(os.Stderr, "hpccg: application ranks failed")
		os.Exit(1)
	}
	if !report || res == nil {
		return wall
	}
	if asJSON {
		reportJSON(mode, cluster.PhysProcs(), logical, cfg, wall, res)
		return wall
	}
	fmt.Printf("mode=%s procs=%d logical=%d grid=%dx%dx%d iters=%d\n",
		mode, cluster.PhysProcs(), logical, cfg.Nx, cfg.Ny, cfg.Nz, res.Iters)
	fmt.Printf("wall=%v residual=%.3e\n", wall, res.Residual)
	names := make([]string, 0, len(res.Kernels))
	for n := range res.Kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		kt := res.Kernels[n]
		fmt.Printf("  %-10s %10v  (%d calls, update wait %v)\n", n, kt.Wall, kt.Calls, kt.UpdateWait)
	}
	st := res.Stats
	fmt.Printf("sections=%d tasksRun=%d tasksReceived=%d recovered=%d updateBytes=%d\n",
		st.Sections, st.TasksRun, st.TasksReceived, st.TasksRecovered, st.UpdateBytes)
	return wall
}

// asJSON switches the run report to JSON (-json flag).
var asJSON bool

type jsonReport struct {
	Mode          string                              `json:"mode"`
	PhysProcs     int                                 `json:"phys_procs"`
	Logical       int                                 `json:"logical"`
	Grid          string                              `json:"grid"`
	Iters         int                                 `json:"iters"`
	WallSeconds   float64                             `json:"wall_seconds"`
	Residual      float64                             `json:"residual"`
	Kernels       map[string]experiments.KernelResult `json:"kernels"`
	Sections      int                                 `json:"sections"`
	TasksRun      int                                 `json:"tasks_run"`
	TasksReceived int                                 `json:"tasks_received"`
	TasksRecov    int                                 `json:"tasks_recovered"`
	UpdateBytes   int64                               `json:"update_bytes"`
}

func reportJSON(mode experiments.Mode, phys, logical int, cfg hpccg.Config, wall sim.Time, res *hpccg.Result) {
	rep := jsonReport{
		Mode:          mode.String(),
		PhysProcs:     phys,
		Logical:       logical,
		Grid:          fmt.Sprintf("%dx%dx%d", cfg.Nx, cfg.Ny, cfg.Nz),
		Iters:         res.Iters,
		WallSeconds:   wall.Seconds(),
		Residual:      res.Residual,
		Kernels:       experiments.KernelResults(res.Kernels),
		Sections:      res.Stats.Sections,
		TasksRun:      res.Stats.TasksRun,
		TasksReceived: res.Stats.TasksReceived,
		TasksRecov:    res.Stats.TasksRecovered,
		UpdateBytes:   res.Stats.UpdateBytes,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "hpccg:", err)
		os.Exit(1)
	}
}
