package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/scene"
)

// observedSpec describes one instrumented run of the observed-run mode
// (-stats-json / -trace).
type observedSpec struct {
	scene     scene.Benchmark
	arch      string
	policy    string // non-empty: run this registry policy instead of arch
	bounce    int
	seriesCap int
	statsJSON string
	traceOut  string
	repeat    int
}

// pickScene returns the -scene selection, defaulting to the conference
// room (the paper's headline benchmark).
func pickScene(scenes []scene.Benchmark) scene.Benchmark {
	if len(scenes) > 0 {
		return scenes[0]
	}
	return scene.ConferenceRoom
}

// policyName resolves what the observed run simulates: -policy wins,
// otherwise the legacy -arch spelling (the four architecture names are
// registered policies, so both route through the same registry and an
// unknown name fails in exactly one place).
func (s observedSpec) policyName() string {
	if s.policy != "" {
		return s.policy
	}
	return s.arch
}

// runObserved performs the instrumented run(s) and writes the requested
// artifacts. With repeat > 1 every run's serialized artifacts must be
// byte-identical or the process exits 1 — the metrics dump is the
// determinism fingerprint, not a float-rounded table.
func runObserved(ctx context.Context, p experiments.Params, spec observedSpec) {
	name := spec.policyName()
	if _, err := harness.Policies().New(name); err != nil {
		exitOn(err)
	}
	p.Options.Observe = true
	p.Options.SeriesCap = spec.seriesCap

	w, err := experiments.BuildWorkload(spec.scene, p)
	exitOn(err)
	rays := w.BounceRays(spec.bounce, p)
	if len(rays) == 0 {
		exitOn(fmt.Errorf("scene %s bounce %d has no rays; lower -bounce", spec.scene, spec.bounce))
	}
	fmt.Fprintf(os.Stderr, "observed run: %s on %s bounce %d, %d rays\n",
		name, spec.scene, spec.bounce, len(rays))

	var refStats, refTrace []byte
	for i := 1; i <= spec.repeat; i++ {
		res, err := harness.RunNamedCtx(ctx, name, rays, w.Data, p.Options)
		exitOn(err)
		stats, err := json.Marshal(res.Metrics)
		exitOn(err)
		var traceBytes []byte
		if spec.traceOut != "" {
			tr, err := res.ChromeTrace()
			exitOn(err)
			var buf bytes.Buffer
			exitOn(tr.WriteJSON(&buf))
			traceBytes = buf.Bytes()
		}
		if i == 1 {
			refStats, refTrace = stats, traceBytes
			if res.Series != nil && res.Series.Dropped() > 0 {
				fmt.Fprintf(os.Stderr, "note: series ring dropped %d early epochs (raise -series-cap to keep them)\n",
					res.Series.Dropped())
			}
			continue
		}
		if !bytes.Equal(stats, refStats) || !bytes.Equal(traceBytes, refTrace) {
			fmt.Fprintf(os.Stderr, "drsbench: determinism violation: observed run %d diverged from run 1\n", i)
			flushProfiles()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repeat %d/%d: identical\n", i, spec.repeat)
	}
	if spec.repeat > 1 {
		fmt.Fprintf(os.Stderr, "determinism check passed: %d observed runs bit-identical\n", spec.repeat)
	}

	if spec.statsJSON != "" {
		exitOn(writeFileAtomic(spec.statsJSON, indentJSON(refStats)))
		fmt.Fprintf(os.Stderr, "wrote %s (%d metrics)\n", spec.statsJSON, countJSONKeys(refStats))
	}
	if spec.traceOut != "" {
		exitOn(writeFileAtomic(spec.traceOut, refTrace))
		fmt.Fprintf(os.Stderr, "wrote %s (open in Perfetto or chrome://tracing)\n", spec.traceOut)
	}
}

// indentJSON pretty-prints the canonical one-line dump for human
// eyeballs; key order (and so byte content) is unchanged.
func indentJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return b
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

func countJSONKeys(b []byte) int {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return 0
	}
	return len(m)
}

// writeFileAtomic writes via a temp file + rename so a crashed run
// never leaves a half-written artifact. A path that exists and is not
// a regular file (a device, a named pipe, a symlink) is written in
// place, following a symlink: renaming over it would replace the
// device or the link with a regular file.
func writeFileAtomic(path string, data []byte) error {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		return os.WriteFile(path, data, 0o644)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
