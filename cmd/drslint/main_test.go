package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv, when set, makes the test binary run drslint's main with
// these space-separated arguments instead of the tests, so a test can
// observe the real exit code, stdout and stderr.
const argsEnv = "DRSLINT_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"drslint"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDrslint runs main in a child process in dir and returns its exit
// code, stdout and stderr.
func runDrslint(t *testing.T, dir, args string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// An unknown mode, a positional argument and a numeric flag out of
// range are usage errors: exit 32 with one stderr line naming the
// culprit, before any scene is built — not a panic, an out-of-memory
// death, or a clean run that explored nothing.
func TestUsageErrorsExit32(t *testing.T) {
	cases := []struct{ args, names string }{
		{"-mode src", "-mode"},
		{"internal", "internal"},
		{"-slots -5", "-slots"},
		{"-slots 0", "-slots"},
		{"-slots 32769", "-slots"},
		{"-slots 100000000", "-slots"},
		{"-tris -5", "-tris"},
		{"-steps -3", "-steps"},
		{"-mode prog -tris 100000000", "-tris"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			code, _, stderr := runDrslint(t, ".", tc.args)
			lines := strings.Split(strings.TrimSpace(stderr), "\n")
			if code != exitInternal || len(lines) != 1 || !strings.Contains(stderr, tc.names) || strings.Contains(stderr, "panic") {
				t.Fatalf("exit %d, stderr:\n%s\nwant exit %d and one line naming %s", code, stderr, exitInternal, tc.names)
			}
		})
	}
}

// The source lint is clean on the real tree, and its JSON report has
// the program and graph keys and no source key. The graph carries the
// unreachable check's census: roots that reach most of the graph.
func TestGraphModeJSONReport(t *testing.T) {
	code, stdout, stderr := runDrslint(t, "../..", "-mode graph -json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, stderr, stdout)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not one JSON object: %v\n%s", err, stdout)
	}
	for _, key := range []string{"program", "graph"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("report lacks %q:\n%s", key, stdout)
		}
	}
	if _, ok := rep["source"]; ok {
		t.Errorf("report still has a source key: %s", rep["source"])
	}
	var graph struct {
		Funcs       int `json:"funcs"`
		Unreachable struct {
			Roots, Reached, Allowed, Exempt int
		} `json:"unreachable"`
	}
	if err := json.Unmarshal(rep["graph"], &graph); err != nil {
		t.Fatalf("graph report: %v", err)
	}
	if u := graph.Unreachable; u.Roots == 0 || u.Reached < graph.Funcs/2 || u.Allowed == 0 || u.Exempt == 0 {
		t.Errorf("unreachable census %+v over %d funcs", u, graph.Funcs)
	}
}
