package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
