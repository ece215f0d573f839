// Command drslint is the repo's determinism and kernel-program linter.
// It runs two independent passes and exits nonzero if either finds
// anything:
//
//   - Program verification (-mode prog): every registered kernel
//     variant is built against every benchmark scene, statically
//     verified (successor ranges, reconvergence points vs the computed
//     immediate post-dominators, reachability, memory and operand
//     budgets, architecture capabilities), and then dynamically
//     explored — Step is driven from the entry block and every observed
//     transition and memory emission is cross-checked against the
//     declared program.
//
//   - Source lint (-mode graph): the type-aware whole-program pass
//     (internal/srcgraph) over the non-test Go under internal/, cmd/
//     and examples/ — map iteration, wall-clock and global-RNG reads
//     and goroutine captured-variable writes anywhere, with the
//     witness call chain when an engine or harness entry point reaches
//     the site; allocation churn in the //drslint:hotpath cone; the
//     spec-hash drift and metrics-registration completeness verifiers;
//     and unreachable code: a function that no binary, package
//     initializer or bench/ reaches. bench/ is a module of its own, so
//     it is loaded separately and read only for the functions it
//     references.
//
// Usage:
//
//	drslint [-mode all|prog|graph] [-json] [-tris N] [-steps N] [-slots N]
//
// With -json the findings are emitted as one machine-readable object.
//
// The exit code is a bitmask identifying which checks failed: 1 =
// kernel-program findings, 2 = unreachable code, 4 = source-lint
// hazards, 8 = spec-hash drift, 16 = metrics-registration gaps. Usage
// and internal errors (a bad flag, a load or build failure) exit 32.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bvh"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/srcgraph"
)

// Exit-code bits, one per check family; the process exit status is the
// OR of every bit whose check produced findings.
const (
	exitProg        = 1  // kernel program verification/exploration
	exitUnreachable = 2  // functions no binary reaches
	exitGraphHazard = 4  // source-lint hazards
	exitSpecHash    = 8  // spec-hash drift
	exitMetricsReg  = 16 // metrics-registration gaps
	exitInternal    = 32 // usage, load or build failure
)

// maxSlots bounds -slots: archconfig's largest warps_per_smx (1024)
// times the widest warp the engine supports.
const maxSlots = 1024 * progcheck.MaxWarpWidth

// kernelVariant is one (name, caps, build) row of the registry.
type kernelVariant struct {
	name  string
	caps  progcheck.Caps
	build func(data *kernels.SceneData, pool *kernels.Pool, slots int) simt.Kernel
}

var variants = []kernelVariant{
	{"aila", progcheck.Caps{}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewAila(d, p, n, kernels.AilaConfig{Speculative: true})
	}},
	{"aila-nospec", progcheck.Caps{}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewAila(d, p, n, kernels.AilaConfig{})
	}},
	{"aila-anyhit", progcheck.Caps{}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewAila(d, p, n, kernels.AilaConfig{Speculative: true, AnyHit: true})
	}},
	{"whileif", progcheck.Caps{Gate: true, CtrlTag: true}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewWhileIf(d, p, n, kernels.WhileIfConfig{})
	}},
	{"whileif-anyhit", progcheck.Caps{Gate: true, CtrlTag: true}, func(d *kernels.SceneData, p *kernels.Pool, n int) simt.Kernel {
		return kernels.NewWhileIf(d, p, n, kernels.WhileIfConfig{AnyHit: true})
	}},
}

// report is the -json output shape.
type report struct {
	Program []progcheck.Finding `json:"program"`
	Graph   *graphReport        `json:"graph,omitempty"`
	// Explored summarizes dynamic coverage per kernel x scene, so a
	// clean run can be judged for how much it actually exercised.
	Explored []exploreSummary `json:"explored,omitempty"`
}

// graphReport carries the graph pass's findings plus enough loader
// health (function count, root inventory) that a regression silently
// emptying the call graph is visible in CI diffs, not just a
// suspiciously green run.
type graphReport struct {
	Funcs    int               `json:"funcs"`
	DetRoots map[string]string `json:"det_roots"`
	HotRoots map[string]string `json:"hot_roots"`
	// DetCone and HotCone count the functions the roots reach.
	DetCone int `json:"det_cone"`
	HotCone int `json:"hot_cone"`
	// Unreachable counts the unreachable check's roots, the functions
	// they reach, the allowed functions and the exempt ones.
	Unreachable srcgraph.Census    `json:"unreachable"`
	Findings    []srcgraph.Finding `json:"findings"`
}

type exploreSummary struct {
	Kernel string `json:"kernel"`
	Scene  string `json:"scene"`
	Steps  int    `json:"steps"`
	Blocks int    `json:"blocks"`
	Edges  int    `json:"edges"`
}

func main() {
	var (
		mode    = flag.String("mode", "all", "which passes to run: all, prog (kernel programs) or graph (source lint)")
		jsonOut = flag.Bool("json", false, "emit findings as a single JSON object")
		tris    = flag.Int("tris", 2000, "triangle budget per benchmark scene for program exploration")
		steps   = flag.Int("steps", 0, "total Step budget per kernel x scene exploration (0 = progcheck default)")
		slots   = flag.Int("slots", 256, "kernel slots (threads) to build and drive per exploration")
	)
	flag.Parse()
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "drslint: "+format+"\n", args...)
		os.Exit(exitInternal)
	}
	switch {
	case *mode != "all" && *mode != "prog" && *mode != "graph":
		usage("unknown -mode %q; valid: all, prog, graph", *mode)
	case flag.NArg() > 0:
		usage("unexpected argument %q; the source lint covers internal/, cmd/ and examples/", flag.Arg(0))
	case *slots < 1 || *slots > maxSlots:
		usage("-slots must be in [1, %d]", maxSlots)
	case *tris < 0 || *tris > experiments.MaxTris:
		usage("-tris must be in [0, %d]", experiments.MaxTris)
	case *steps < 0:
		usage("-steps must be >= 0")
	}

	var rep report
	exit := 0

	if *mode == "all" || *mode == "prog" {
		progFindings, summaries, err := runProg(*tris, *steps, *slots)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drslint:", err)
			os.Exit(exitInternal)
		}
		rep.Program = progFindings
		rep.Explored = summaries
		if len(progFindings) > 0 {
			exit |= exitProg
		}
	}

	if *mode == "all" || *mode == "graph" {
		gr, bits, err := runGraph()
		if err != nil {
			fmt.Fprintln(os.Stderr, "drslint:", err)
			os.Exit(exitInternal)
		}
		rep.Graph = gr
		exit |= bits
	}

	if *jsonOut {
		// Stable shape for machine consumers: empty arrays, not null.
		if rep.Program == nil {
			rep.Program = []progcheck.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "drslint:", err)
			os.Exit(exitInternal)
		}
	} else {
		for _, f := range rep.Program {
			fmt.Println(f.String())
		}
		if rep.Graph != nil {
			for _, f := range rep.Graph.Findings {
				fmt.Println(f.String())
			}
		}
		if exit == 0 {
			switch {
			case rep.Graph != nil && *mode == "graph":
				fmt.Printf("drslint: clean (graph: %s)\n", rep.Graph.summary())
			case rep.Graph != nil:
				fmt.Printf("drslint: clean (%d kernel/scene explorations; graph: %s)\n",
					len(rep.Explored), rep.Graph.summary())
			default:
				fmt.Printf("drslint: clean (%d kernel/scene explorations)\n", len(rep.Explored))
			}
		}
	}
	os.Exit(exit)
}

// summary renders the graph's size, roots and cones.
func (gr *graphReport) summary() string {
	u := gr.Unreachable
	return fmt.Sprintf("%d funcs, %d det roots reaching %d, %d hot roots reaching %d, %d live roots reaching %d (%d allowed, %d exempt)",
		gr.Funcs, len(gr.DetRoots), gr.DetCone, len(gr.HotRoots), gr.HotCone, u.Roots, u.Reached, u.Allowed, u.Exempt)
}

// runGraph loads the module, and bench/ for its references, runs the
// whole-program analyses, and maps each finding onto its exit-code bit.
func runGraph() (*graphReport, int, error) {
	prog, err := srcgraph.Load(".", "./internal/...", "./cmd/...", "./examples/...")
	if err != nil {
		return nil, 0, fmt.Errorf("graph load: %w", err)
	}
	bench, err := srcgraph.Load("bench", ".")
	if err != nil {
		return nil, 0, fmt.Errorf("graph load of bench/: %w", err)
	}
	g := srcgraph.BuildGraph(prog, bench)
	det, hot := g.Roots()
	gr := &graphReport{
		Funcs:    g.NumFuncs(),
		DetRoots: det,
		HotRoots: hot,
		Findings: g.Analyze(),
	}
	gr.DetCone, gr.HotCone = g.Cones()
	_, gr.Unreachable = g.Unreachable()
	if gr.Findings == nil {
		gr.Findings = []srcgraph.Finding{}
	}
	bits := 0
	for _, f := range gr.Findings {
		switch f.Check {
		case srcgraph.CheckSpecHash:
			bits |= exitSpecHash
		case srcgraph.CheckMetricsReg:
			bits |= exitMetricsReg
		case srcgraph.CheckUnreachable:
			bits |= exitUnreachable
		default:
			bits |= exitGraphHazard
		}
	}
	return gr, bits, nil
}

// runProg verifies and explores every kernel variant against every
// benchmark scene.
func runProg(tris, stepBudget, slots int) ([]progcheck.Finding, []exploreSummary, error) {
	var findings []progcheck.Finding
	var summaries []exploreSummary
	for _, b := range scene.Benchmarks {
		sc := scene.Generate(b, tris)
		bv, err := bvh.Build(sc.Tris, bvh.DefaultOptions())
		if err != nil {
			return nil, nil, fmt.Errorf("bvh %s: %w", b, err)
		}
		data := kernels.NewSceneData(bv)
		rays := scene.ProbeRays(sc, slots)
		for _, v := range variants {
			pool := &kernels.Pool{Rays: rays}
			k := v.build(data, pool, slots)
			name := v.name + "@" + b.String()
			findings = append(findings, progcheck.Verify(name, k, v.caps)...)
			fs, cov := progcheck.Explore(name, k, progcheck.ExploreConfig{
				MaxTotalSteps: stepBudget,
				Slots:         slots,
			})
			findings = append(findings, fs...)
			summaries = append(summaries, exploreSummary{
				Kernel: v.name, Scene: b.String(),
				Steps: cov.Steps, Blocks: cov.BlocksVisited, Edges: cov.EdgesObserved,
			})
		}
	}
	return findings, summaries, nil
}
