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

// argsEnv, when set, makes the test binary run drsbench's main with
// these space-separated arguments instead of the tests, so a test can
// observe the real exit code and stderr.
const argsEnv = "DRSBENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"drsbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDrsbench runs main in a child process and returns its exit code
// and stderr.
func runDrsbench(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// wantUsageError runs drsbench with args and requires a usage error:
// exit 2 with a one-line message naming flag.
func wantUsageError(t *testing.T, flag, args string) {
	t.Helper()
	code, stderr := runDrsbench(t, args)
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if code != 2 || len(lines) != 1 || !strings.Contains(stderr, flag) {
		t.Fatalf("%s: exit %d, stderr:\n%s\nwant exit 2 and one line naming %s", args, code, stderr, flag)
	}
}

// A -bounce, -sweepbounces or -cmpbounces outside [1, trace.MaxBounces]
// is a usage error, reported before any workload is built — not a
// panic from inside the trace set with a goroutine dump, nor a figure
// with missing rows. The -bounce cases are named by their value alone.
func TestBadBounceIsUsageError(t *testing.T) {
	cases := []struct{ flag, v, args string }{
		{"-bounce", "0", "-stats-json " + t.TempDir() + "/x.json"},
		{"-bounce", "-1", "-stats-json " + t.TempDir() + "/x.json"},
		{"-bounce", "9", "-stats-json " + t.TempDir() + "/x.json"},
		{"-bounce", "99", "-stats-json " + t.TempDir() + "/x.json"},
		{"-sweepbounces", "0", "-exp table2 -scene conference"},
		{"-sweepbounces", "9", "-exp table2 -scene conference"},
		{"-sweepbounces", "9", "-exp fig8 -scene conference"},
		{"-sweepbounces", "9", "-exp sweeps -scene conference"},
		{"-cmpbounces", "0", "-exp fig10 -scene conference"},
		{"-cmpbounces", "-2", "-exp fig11 -scene conference"},
		{"-cmpbounces", "9", "-exp policies -scene conference"},
	}
	for _, tc := range cases {
		name := tc.v
		if tc.flag != "-bounce" {
			name = tc.flag + " " + tc.v + " " + tc.args
		}
		t.Run(name, func(t *testing.T) {
			wantUsageError(t, tc.flag, "-tris 500 -w 16 -h 12 "+tc.flag+" "+tc.v+" "+tc.args)
		})
	}
}

// An SMX count beyond simt.MaxSMX, a negative one, or more cell workers
// than harness.MaxParallelism is a usage error too, reported before any
// workload or device is built.
func TestBadDeviceSizeIsUsageError(t *testing.T) {
	cases := []struct{ flag, args string }{
		{"-smx", "-exp table1 -smx 5000"},
		{"-smx", "-exp table1 -smx -3"},
		{"-par", "-exp table2 -sweepbounces 1 -scene conference -par 5000"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			wantUsageError(t, tc.flag, "-tris 500 -w 16 -h 12 "+tc.args)
		})
	}
}

// A scene scale or ray cap below its floor or above the service's
// JobSpec bound, or a render of more than MaxSampleBudget samples, is a
// usage error, reported before any workload is built — not a failure
// inside a cell, a silent run at the paper's full triangle counts, an
// observed run that builds its workload first, or an out-of-memory
// death.
func TestBadScaleIsUsageError(t *testing.T) {
	cases := []struct{ flag, args string }{
		{"-tris", "-exp fig2 -scene conference -tris -5"},
		{"-tris", "-exp table1 -tris -5"},
		{"-w", "-exp fig2 -scene conference -w -16"},
		{"-h", "-exp fig2 -scene conference -h 0"},
		{"-spp", "-exp fig2 -scene conference -spp 0"},
		{"-rays", "-exp fig2 -scene conference -rays -5"},
		{"-series-cap", "-series-cap -4 -stats-json " + t.TempDir() + "/x.json"},
		{"-w", "-exp fig2 -scene conference -tris 500 -w 200000 -h 200000"},
		{"-h", "-exp fig2 -scene conference -tris 500 -h 4097"},
		{"-spp", "-exp fig2 -scene conference -tris 500 -spp 257"},
		{"-spp", "-exp fig2 -scene conference -tris 500 -w 4096 -h 4096 -spp 2"},
		{"-tris", "-exp fig2 -scene conference -tris 2000001"},
		{"-rays", "-exp fig2 -scene conference -tris 500 -rays 64000001"},
		{"-tris", "-tris 100000000 -stats-json " + t.TempDir() + "/x.json"},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			wantUsageError(t, tc.flag, tc.args)
		})
	}
}

// -paper replaces -w, -h and -spp with PaperParams' 640x480x64 render,
// which is above MaxSampleBudget; the budget must not reject it.
func TestPaperRenderIsNotBudgeted(t *testing.T) {
	if code, stderr := runDrsbench(t, "-paper -exp table1"); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nwant exit 0", code, stderr)
	}
}

// A device-model file the register file cannot build is a usage error
// too: exit 2 from the config validator, not a panic from inside the
// register file.
func TestUnbuildableArchConfigIsUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, []byte(`{"name":"wide-rf","rf_banks":100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := runDrsbench(t, "-arch-config @"+path+" -tris 1000 -w 32 -h 24 -bounce 1")
	if code != 2 || strings.Contains(stderr, "panic") || !strings.Contains(stderr, "rf_banks") {
		t.Fatalf("exit %d, stderr:\n%s\nwant exit 2 and an rf_banks error, no panic", code, stderr)
	}
}
