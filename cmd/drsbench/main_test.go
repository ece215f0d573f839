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

// A -bounce outside [1, trace.MaxBounces] is a usage error: exit 2
// with a one-line message, before any workload is built — not a panic
// from inside the trace set with a goroutine dump.
func TestBadBounceIsUsageError(t *testing.T) {
	for _, b := range []string{"0", "-1", "9", "99"} {
		t.Run(b, func(t *testing.T) {
			code, stderr := runDrsbench(t, "-tris 2000 -w 32 -h 24 -bounce "+b+" -stats-json "+t.TempDir()+"/x.json")
			lines := strings.Split(strings.TrimSpace(stderr), "\n")
			if code != 2 || len(lines) != 1 || !strings.Contains(stderr, "-bounce") {
				t.Fatalf("-bounce %s: exit %d, stderr:\n%s\nwant exit 2 and one line naming -bounce", b, code, stderr)
			}
		})
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
