package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// sweepArgsEnv carries the argument list of a sweep invocation into a
// re-executed test binary, which then runs main with it instead of the
// tests: the only way to observe main's exit status.
const sweepArgsEnv = "SWEEP_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(sweepArgsEnv); ok {
		os.Args = append([]string{"sweep"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs main with args in a child process and returns its exit
// status and standard error.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^$")
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), sweepArgsEnv+"="+strings.Join(args, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRejectsOutOfRangeFaultInputs: every fault or checkpoint input that
// cannot be a virtual time or a finite checkpoint setting exits 2 with an
// error naming the value, before anything is simulated. Each of these used
// to run: a horizon that overflowed virtual time gave a fault-free
// campaign, and an infinite or NaN checkpoint setting gave NaN rows.
func TestRejectsOutOfRangeFaultInputs(t *testing.T) {
	dir := t.TempDir()
	file := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	campaignFile := file("campaign.json", `{"scenarios": [{"name": "far", "app": "gtc",
		"config": {"Steps": 2}, "mode": "ccr", "logical": 8,
		"fault": {"mtbf_seconds": 1, "horizon_seconds": 1e10}}]}`)
	workloadFile := file("workload.json", `{"workload": {"nodes": 4, "jobs": 2,
		"rates_jobs_per_sec": [8], "mtbf_seconds": 1e10, "seed": 7,
		"mix": [{"name": "g", "app": "gtc", "config": {"Steps": 2}, "logical": 2}],
		"schedulers": ["fcfs"], "policies": ["native"]}}`)

	campaign := func(more string) []string {
		return strings.Fields("-mode campaign -ft ccr -app gtc -procs 8 -iters 2 -trials 2 -modes classic " + more)
	}
	explore := func(more string) []string {
		return strings.Fields("-mode explore -ft ccr -app gtc -procs 8 -iters 2 -modes classic -mtbf 0.1,1 " + more)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{campaign("-mtbf 1 -horizon -1"), "-horizon -1 s"},
		{campaign("-mtbf 1 -horizon 1e10"), "-horizon 1e+10 s"},
		{campaign("-mtbf 1 -horizon inf"), "-horizon +Inf s"},
		{campaign("-mtbf 1 -horizon nan"), "-horizon NaN s"},
		{campaign("-mtbf 1 -ckpt-tau inf"), "checkpoint interval +Inf s"},
		{campaign("-mtbf 1 -ckpt-tau nan"), "checkpoint interval NaN s"},
		{campaign("-mtbf 1 -ckpt-delta nan"), "checkpoint cost NaN s"},
		{campaign("-mtbf 1 -ckpt-delta inf"), "checkpoint cost +Inf s"},
		{campaign("-mtbf 1 -ckpt-restart inf"), "restart cost +Inf s"},
		{campaign("-mtbf inf"), "mtbf_seconds +Inf s"},
		{campaign("-mtbf nan"), "mtbf_seconds NaN s"},
		{campaign("-mtbf 1e10"), "mtbf_seconds 1e+10 s"},
		{explore("-ckpt-tau inf"), "checkpoint interval +Inf s"},
		{explore("-horizon 1e10"), "-horizon 1e+10 s"},
		{[]string{"-mode", "campaign", "-spec", campaignFile}, "horizon_seconds 1e+10 s"},
		{[]string{"-mode", "jobstream", "-spec", workloadFile}, "mtbf_seconds 1e+10 s"},
	} {
		code, stderr := runSweep(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("sweep %s: exit %d, stderr %q; want exit 2 naming %q",
				strings.Join(c.args, " "), code, stderr, c.want)
		}
	}
}
