// Command drsbench regenerates the paper's tables and figures on the
// simulated GPU. Each experiment prints the rows of the corresponding
// paper artifact; -exp selects which one (or "all").
//
// Scale flags trade fidelity for runtime: the defaults finish in
// minutes; -paper approaches the paper's 2M-ray workloads.
//
// The device engine is the deterministic epoch-barrier engine by
// default, so every run of the same configuration produces identical
// cycle counts; -repeat N re-runs the selected experiments and exits
// nonzero if any cell diverges.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/archconfig"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/trace"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig2|fig8|fig9|table2|fig10|fig11|overhead|policies|sweeps|all (all = the paper artifacts; policies and sweeps run only when named)")
		tris    = flag.Int("tris", 20000, "triangle budget per scene (0 = paper full scale)")
		width   = flag.Int("w", 320, "trace render width")
		height  = flag.Int("h", 240, "trace render height")
		spp     = flag.Int("spp", 1, "samples per pixel for trace generation")
		rays    = flag.Int("rays", 0, "cap rays per bounce (0 = no cap)")
		smx     = flag.Int("smx", 0, "SMX count override (0 = Table 1's 15)")
		sweepB  = flag.Int("sweepbounces", 4, "bounces for the fig8/table2 sweeps")
		cmpB    = flag.Int("cmpbounces", 3, "per-bounce rows for fig10/fig11")
		scen    = flag.String("scene", "", "restrict to one scene (conference|fairy|sponza|plants)")
		paper   = flag.Bool("paper", false, "use paper-scale parameters (slow)")
		asJSON  = flag.Bool("json", false, "emit raw experiment cells as JSON instead of tables")
		par     = flag.Int("par", 0, "experiment cell scheduler workers (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any value")
		repeat  = flag.Int("repeat", 1, "run the selected experiments N times; exit 1 if any cell diverges between runs")
		timeout = flag.Duration("timeout", 0, "abort after this wall-clock duration (0 = no limit); a timed-out run exits with code 3, distinct from divergence failures (1)")

		policyFlag   = flag.String("policy", "", "reordering policy: restricts -exp policies to one policy, or selects the observed run's policy (see -list-policies)")
		listPolicies = flag.Bool("list-policies", false, "print the registered reordering policies and exit")

		archCfg    = flag.String("arch-config", "", "device model for every selected experiment: a builtin name (see -list-archs) or @path to a JSON config; supersedes -smx")
		schedFlag  = flag.String("sched", "", "warp-scheduler policy for every selected experiment (see -list-scheds); empty = device default (gto)")
		listArchs  = flag.Bool("list-archs", false, "print the builtin device models and exit")
		listScheds = flag.Bool("list-scheds", false, "print the registered warp schedulers and exit")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (flushed on clean exit and on -timeout expiry)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit (after a final GC)")

		statsJSON = flag.String("stats-json", "", "observed-run mode: write the full metrics registry dump (flat JSON) to this file")
		traceOut  = flag.String("trace", "", "observed-run mode: write a Chrome trace (chrome://tracing / Perfetto) of per-SMX occupancy and stall phases to this file")
		archFlag  = flag.String("arch", "drs", "architecture for the observed run: aila|drs|dmk|tbc (superseded by -policy)")
		bounce    = flag.Int("bounce", 2, "trace bounce whose rays the observed run simulates")
		seriesCap = flag.Int("series-cap", 0, "epoch time-series ring capacity for the observed run (0 = default)")
	)
	flag.Parse()

	if *listPolicies {
		fmt.Print(experiments.PolicyCatalog())
		return
	}
	if *listArchs {
		fmt.Print(experiments.ArchCatalog())
		return
	}
	if *listScheds {
		fmt.Print(experiments.SchedCatalog())
		return
	}

	// Scale flags out of range are usage errors, reported before any
	// workload is built.
	for _, f := range []struct {
		name     string
		val, min int
	}{{"tris", *tris, 0}, {"w", *width, 1}, {"h", *height, 1}, {"spp", *spp, 1}, {"rays", *rays, 0}, {"series-cap", *seriesCap, 0}} {
		if f.val < f.min {
			fmt.Fprintf(os.Stderr, "-%s must be >= %d\n", f.name, f.min)
			os.Exit(2)
		}
	}

	p := experiments.DefaultParams()
	if *paper {
		p = experiments.PaperParams()
	}
	if *tris != 20000 || !*paper {
		p.Tris = *tris
	}
	if !*paper {
		p.Width, p.Height, p.SPP = *width, *height, *spp
		p.MaxRaysPerBounce = *rays
	}
	if *smx < 0 || *smx > simt.MaxSMX {
		fmt.Fprintf(os.Stderr, "-smx must be in [0, %d]\n", simt.MaxSMX)
		os.Exit(2)
	}
	if *smx > 0 {
		p.Options.Simt.NumSMX = *smx
	}
	if *par < 0 || *par > harness.MaxParallelism {
		fmt.Fprintf(os.Stderr, "-par must be in [0, %d]\n", harness.MaxParallelism)
		os.Exit(2)
	}
	p.Options.Parallelism = *par
	// The device model applies after the scalar device overrides so a
	// named config fully determines the device; a bad name or a config
	// the validator rejects is a usage error, reported once, here.
	if *archCfg != "" {
		ac, err := resolveArchConfig(*archCfg)
		if err == nil {
			p.Options, err = harness.ApplyArch(ac, p.Options)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "drsbench: %v\n", err)
			os.Exit(2)
		}
	}
	if *schedFlag != "" {
		sched, err := harness.Schedulers().New(*schedFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drsbench: %v\n", err)
			os.Exit(2)
		}
		p.Options.Scheduler = sched
	}
	var scenes []scene.Benchmark
	if *scen != "" {
		for _, b := range scene.Benchmarks {
			if b.String() == *scen {
				scenes = []scene.Benchmark{b}
			}
		}
		if scenes == nil {
			fmt.Fprintf(os.Stderr, "unknown scene %q\n", *scen)
			os.Exit(2)
		}
	}
	if *repeat < 1 {
		fmt.Fprintf(os.Stderr, "-repeat must be >= 1\n")
		os.Exit(2)
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "-timeout must be >= 0\n")
		os.Exit(2)
	}
	if *bounce < 1 || *bounce > trace.MaxBounces {
		fmt.Fprintf(os.Stderr, "-bounce must be in [1, %d]\n", trace.MaxBounces)
		os.Exit(2)
	}
	if *sweepB < 1 || *sweepB > trace.MaxBounces {
		fmt.Fprintf(os.Stderr, "-sweepbounces must be in [1, %d]\n", trace.MaxBounces)
		os.Exit(2)
	}
	if *cmpB < 1 || *cmpB > trace.MaxBounces {
		fmt.Fprintf(os.Stderr, "-cmpbounces must be in [1, %d]\n", trace.MaxBounces)
		os.Exit(2)
	}

	flushProfiles = startProfiles(*cpuprofile, *memprofile)
	defer flushProfiles()

	// The timeout rides the same context plumbing the service layer
	// uses: scheduler workers stop claiming cells and in-flight device
	// runs abort at their next epoch barrier.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Observed-run mode: -stats-json / -trace run one instrumented
	// simulation (scene, architecture and bounce selected by flags)
	// instead of the experiment suite, and write machine-readable
	// artifacts. -repeat re-runs it and byte-compares the artifacts.
	if *statsJSON != "" || *traceOut != "" {
		runObserved(ctx, p, observedSpec{
			scene:     pickScene(scenes),
			arch:      *archFlag,
			policy:    *policyFlag,
			bounce:    *bounce,
			seriesCap: *seriesCap,
			statsJSON: *statsJSON,
			traceOut:  *traceOut,
			repeat:    *repeat,
		})
		return
	}

	if *policyFlag != "" {
		if _, err := harness.Policies().New(*policyFlag); err != nil {
			fmt.Fprintf(os.Stderr, "drsbench: %v\n", err)
			os.Exit(2)
		}
	}

	sel := selection{exp: *exp, sweepB: *sweepB, cmpB: *cmpB, scenes: scenes, policy: *policyFlag}
	//drslint:allow wallclock -- wall time reports real CLI runtime, not simulated state
	start := time.Now()

	results, cache, err := sel.run(ctx, p)
	exitOn(err)
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: table1 fig2 fig8 fig9 table2 fig10 fig11 overhead policies sweeps all\n", *exp)
		os.Exit(2)
	}
	for _, r := range results {
		if *asJSON && r.cells != nil {
			out, err := json.MarshalIndent(map[string]any{"experiment": r.name, "cells": r.cells}, "", "  ")
			exitOn(err)
			fmt.Println(string(out))
			continue
		}
		fmt.Println(r.text)
	}

	// Determinism check: every repeat must reproduce the first run's
	// cells and rendered tables byte for byte.
	if *repeat > 1 {
		ref := make(map[string][]byte, len(results))
		for _, r := range results {
			fp, err := r.fingerprint()
			exitOn(err)
			ref[r.name] = fp
		}
		for i := 2; i <= *repeat; i++ {
			again, _, err := sel.run(ctx, p)
			exitOn(err)
			for _, r := range again {
				fp, err := r.fingerprint()
				exitOn(err)
				if !bytes.Equal(fp, ref[r.name]) {
					fmt.Fprintf(os.Stderr,
						"drsbench: determinism violation: run %d of %s diverged from run 1\n",
						i, r.name)
					flushProfiles()
					os.Exit(1)
				}
			}
			fmt.Fprintf(os.Stderr, "repeat %d/%d: identical\n", i, *repeat)
		}
		fmt.Fprintf(os.Stderr, "determinism check passed: %d runs bit-identical\n", *repeat)
	}

	if *exp == "all" {
		st := cache.Stats()
		fmt.Fprintf(os.Stderr, "workloads: %d built, %d cache hits\n", st.Builds, st.Hits)
		//drslint:allow wallclock -- wall time reports real CLI runtime, not simulated state
		fmt.Printf("completed in %s\n", time.Since(start).Round(time.Millisecond))
	}
}

// expResult is one experiment's output for one run: the raw cells (nil
// for text-only experiments) and the rendered table.
type expResult struct {
	name  string
	cells any
	text  string
}

// fingerprint serializes everything the determinism check compares.
func (r expResult) fingerprint() ([]byte, error) {
	return json.Marshal(map[string]any{"cells": r.cells, "text": r.text})
}

// selection is the set of experiments chosen on the command line.
type selection struct {
	exp    string
	sweepB int
	cmpB   int
	scenes []scene.Benchmark
	policy string // restrict -exp policies to one policy ("" = all)
}

// want reports whether the named experiment was selected. "all" covers
// the paper artifacts only; the cross-policy comparison and the
// architecture sweep run when named explicitly, so -exp all keeps
// regenerating the committed results_*.txt byte for byte.
func (s selection) want(name string) bool {
	if s.exp == "all" {
		return name != "policies" && name != "sweeps"
	}
	return s.exp == name
}

// run executes every selected experiment once, in a fixed order. One
// workload cache is shared across the whole selection, so a suite run
// builds each scene's render+BVH+traces exactly once; each -repeat
// iteration gets a fresh cache so repeats exercise the full pipeline.
func (s selection) run(ctx context.Context, p experiments.Params) ([]expResult, *experiments.WorkloadCache, error) {
	p.Cache = experiments.NewWorkloadCache()
	var out []expResult
	if s.want("table1") {
		out = append(out, expResult{name: "table1", text: experiments.Table1(p)})
	}
	if s.want("overhead") {
		out = append(out, expResult{name: "overhead", text: experiments.Overhead(core.DefaultConfig())})
	}
	if s.want("fig2") {
		rows, err := experiments.Figure2Ctx(ctx, p)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, expResult{"fig2", rows, experiments.RenderFigure2(rows)})
	}
	if s.want("fig8") || s.want("fig9") {
		cells, err := experiments.Figure8Ctx(ctx, p, s.sweepB, s.scenes)
		if err != nil {
			return nil, nil, err
		}
		if s.want("fig8") {
			out = append(out, expResult{"fig8", cells, experiments.RenderFigure8(cells, s.sweepB)})
		}
		if s.want("fig9") {
			out = append(out, expResult{"fig9", cells, experiments.RenderFigure9(cells, s.sweepB)})
		}
	}
	if s.want("table2") {
		cells, err := experiments.Table2Ctx(ctx, p, s.sweepB, s.scenes)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, expResult{"table2", cells, experiments.RenderTable2(cells, s.sweepB)})
	}
	if s.want("policies") {
		var pols []string
		if s.policy != "" {
			pols = []string{s.policy}
		}
		cells, err := experiments.PoliciesFigureCtx(ctx, p, s.cmpB, s.scenes, pols)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, expResult{"policies", cells, experiments.RenderPolicies(cells, s.cmpB)})
	}
	if s.want("sweeps") {
		cells, err := experiments.SweepsFigureCtx(ctx, p, s.sweepB, s.scenes)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, expResult{"sweeps", cells, experiments.RenderSweeps(cells)})
	}
	if s.want("fig10") || s.want("fig11") {
		cells, err := experiments.Figure10Ctx(ctx, p, s.cmpB, s.scenes)
		if err != nil {
			return nil, nil, err
		}
		if s.want("fig10") {
			out = append(out, expResult{"fig10", cells, experiments.RenderFigure10(cells, s.cmpB)})
		}
		if s.want("fig11") {
			out = append(out, expResult{"fig11", cells, experiments.RenderFigure11(cells, s.cmpB)})
		}
	}
	return out, p.Cache, nil
}

// flushProfiles finalizes -cpuprofile/-memprofile. It must run on every
// exit path — exitOn's os.Exit calls bypass defers, and a timed-out run
// is exactly the one being profiled — so exitOn calls it explicitly
// before exiting.
var flushProfiles = func() {}

// startProfiles begins CPU profiling (if requested) and returns the
// idempotent flush that stops it and writes the allocation profile.
func startProfiles(cpu, mem string) func() {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drsbench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "drsbench:", err)
			os.Exit(2)
		}
		cpuF = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "drsbench:", err)
				return
			}
			runtime.GC() // settle live heap so inuse numbers are meaningful
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "drsbench:", err)
			}
			f.Close()
		}
	}
}

func exitOn(err error) {
	if err == nil {
		return
	}
	flushProfiles()
	// A -timeout expiry is an operational condition, not a determinism
	// or simulation failure; give it its own exit code so CI wrappers
	// can tell the two apart.
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "drsbench: timed out:", err)
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "drsbench:", err)
	os.Exit(1)
}

// resolveArchConfig maps the -arch-config flag to a device model: a
// leading @ reads and decodes a JSON config file, anything else is a
// builtin name (archconfig.Names / -list-archs).
func resolveArchConfig(v string) (archconfig.Config, error) {
	if strings.HasPrefix(v, "@") {
		return archconfig.DecodeFile(strings.TrimPrefix(v, "@"))
	}
	return archconfig.Builtin(v)
}
