// Command drslint is the repo's determinism and kernel-program linter.
// It runs three independent passes and exits nonzero if any finds
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
//   - Source lint (-mode src): the file-granular syntactic determinism
//     lint over the repo's non-test Go sources (map iteration feeding
//     simulation state, wall-clock and global-RNG reads, goroutine
//     captured-variable writes).
//
//   - Graph analysis (-mode graph): the type-aware whole-program pass
//     (internal/srcgraph) — a static call graph over internal/ + cmd/,
//     determinism-hazard findings for any function reachable from an
//     engine/harness entry point or //drslint:hotpath root, plus the
//     spec-hash drift and metrics-registration completeness verifiers.
//
// Usage:
//
//	drslint [-mode all|prog|src|graph] [-json] [-tris N] [-steps N] [src roots...]
//
// With -json the findings are emitted as one machine-readable object.
//
// The exit code is a bitmask identifying which checks failed: 1 =
// kernel-program findings, 2 = source-lint findings, 4 = graph
// determinism hazards, 8 = spec-hash drift, 16 = metrics-registration
// gaps. Internal errors (load or build failures) exit 32.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bvh"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/srcgraph"
)

// Exit-code bits, one per check family; the process exit status is the
// OR of every bit whose check produced findings.
const (
	exitProg        = 1 << iota // kernel program verification/exploration
	exitSrc                     // syntactic source lint
	exitGraphHazard             // interprocedural determinism hazards
	exitSpecHash                // spec-hash drift
	exitMetricsReg              // metrics-registration gaps
	exitInternal                // load/build/usage failure (32)
)

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
	Program []progcheck.Finding    `json:"program"`
	Source  []progcheck.SrcFinding `json:"source"`
	Graph   *graphReport           `json:"graph,omitempty"`
	// Explored summarizes dynamic coverage per kernel x scene, so a
	// clean run can be judged for how much it actually exercised.
	Explored []exploreSummary `json:"explored,omitempty"`
}

// graphReport carries the graph pass's findings plus enough loader
// health (function count, root inventory) that a regression silently
// emptying the call graph is visible in CI diffs, not just a
// suspiciously green run.
type graphReport struct {
	Funcs    int                `json:"funcs"`
	DetRoots map[string]string  `json:"det_roots"`
	HotRoots map[string]string  `json:"hot_roots"`
	Findings []srcgraph.Finding `json:"findings"`
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
		mode    = flag.String("mode", "all", "which passes to run: all, prog (kernel programs), src (source lint), or graph (whole-program analysis)")
		jsonOut = flag.Bool("json", false, "emit findings as a single JSON object")
		tris    = flag.Int("tris", 2000, "triangle budget per benchmark scene for program exploration")
		steps   = flag.Int("steps", 0, "total Step budget per kernel x scene exploration (0 = progcheck default)")
		slots   = flag.Int("slots", 256, "kernel slots (threads) to build and drive per exploration")
	)
	flag.Parse()
	if *mode != "all" && *mode != "prog" && *mode != "src" && *mode != "graph" {
		fmt.Fprintf(os.Stderr, "drslint: unknown -mode %q; valid: all, prog, src, graph\n", *mode)
		os.Exit(exitInternal)
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

	if *mode == "all" || *mode == "src" {
		roots := flag.Args()
		if len(roots) == 0 {
			roots = []string{"internal", "cmd"}
		}
		srcFindings, err := progcheck.LintDirs(roots...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drslint:", err)
			os.Exit(exitInternal)
		}
		rep.Source = srcFindings
		if len(srcFindings) > 0 {
			exit |= exitSrc
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
		if rep.Source == nil {
			rep.Source = []progcheck.SrcFinding{}
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
		for _, f := range rep.Source {
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
				fmt.Printf("drslint: clean (graph: %d funcs, %d det roots, %d hot roots)\n",
					rep.Graph.Funcs, len(rep.Graph.DetRoots), len(rep.Graph.HotRoots))
			case rep.Graph != nil:
				fmt.Printf("drslint: clean (%d kernel/scene explorations; graph: %d funcs, %d det roots, %d hot roots)\n",
					len(rep.Explored), rep.Graph.Funcs, len(rep.Graph.DetRoots), len(rep.Graph.HotRoots))
			default:
				fmt.Printf("drslint: clean (%d kernel/scene explorations)\n", len(rep.Explored))
			}
		}
	}
	os.Exit(exit)
}

// runGraph loads the module, runs the whole-program analyses, and maps
// each finding onto its exit-code bit.
func runGraph() (*graphReport, int, error) {
	prog, err := srcgraph.Load(".", "./internal/...", "./cmd/...")
	if err != nil {
		return nil, 0, fmt.Errorf("graph load: %w", err)
	}
	g := srcgraph.BuildGraph(prog)
	det, hot := g.Roots()
	gr := &graphReport{
		Funcs:    g.NumFuncs(),
		DetRoots: det,
		HotRoots: hot,
		Findings: srcgraph.Analyze(prog),
	}
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
