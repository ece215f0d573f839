package srcgraph

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The specimen module under testdata is a self-contained miniature of
// the repo: a binary, an engine package whose import path matches the
// det-root rules, a content-addressed spec with deliberate drift, a
// metrics registry with one orphaned struct, hazards planted where no
// det root reaches, one function per behaviour of the hazard checks,
// the unreachable check's cases, a test-support package, and a root
// module of its own under bench/, as the repo has. Every analyzer must
// fire on it — these are the negative tests CI's zero-findings budget
// leans on: a loader regression that silently empties the call graph
// fails here, not as a suspiciously green lint run.

// Each module is loaded once for all tests; nothing mutates a loaded
// Program.
var (
	specimen      = sync.OnceValues(func() (*Program, error) { return Load("testdata/specimen") })
	specimenBench = sync.OnceValues(func() (*Program, error) { return Load("testdata/specimen/bench", ".") })
	realTree      = sync.OnceValues(func() (*Program, error) {
		return Load("../..", "./internal/...", "./cmd/...", "./examples/...")
	})
	realBench = sync.OnceValues(func() (*Program, error) { return Load("../../bench", ".") })
)

func load(t *testing.T, module func() (*Program, error)) *Program {
	t.Helper()
	prog, err := module()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return prog
}

func byCheck(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// TestSpecimenWants runs every analyzer over the specimen and checks
// each file against its "// want <check>..." comments: every named
// check must be reported on that line, once per mention, and nothing
// else may be reported anywhere.
func TestSpecimenWants(t *testing.T) {
	prog := load(t, specimen)
	got := make(map[string][]string) // file -> "line check", one per finding
	for _, f := range BuildGraph(prog, load(t, specimenBench)).Analyze() {
		got[f.File] = append(got[f.File], fmt.Sprintf("%d %s", f.Line, f.Check))
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			name, _ := prog.Rel(file.Pos())
			var want []string
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					checks, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					line := prog.Fset.Position(c.Slash).Line
					for _, check := range strings.Fields(checks) {
						want = append(want, fmt.Sprintf("%d %s", line, check))
					}
				}
			}
			t.Run(name, func(t *testing.T) {
				missing, extra := multisetDiff(want, got[name]), multisetDiff(got[name], want)
				if len(missing) > 0 || len(extra) > 0 {
					t.Errorf("missing findings (line check): %v\nunexpected findings: %v", missing, extra)
				}
			})
		}
	}
}

// multisetDiff returns the elements of a that no element of b matches.
func multisetDiff(a, b []string) []string {
	left := slices.Clone(b)
	var out []string
	for _, x := range a {
		if i := slices.Index(left, x); i >= 0 {
			left = slices.Delete(left, i, i+1)
		} else {
			out = append(out, x)
		}
	}
	return out
}

// TestInterproceduralHazards pins the witness chains: a map-range and a
// hot-path alloc in untagged helpers two calls below their roots, each
// reported with the path from the root.
func TestInterproceduralHazards(t *testing.T) {
	prog := load(t, specimen)
	var fs []Finding
	for _, f := range BuildGraph(prog).Hazards() {
		if strings.HasPrefix(f.File, "internal/simt/") {
			fs = append(fs, f)
		}
	}

	mr := byCheck(fs, CheckMapRange)
	if len(mr) != 1 {
		t.Fatalf("want exactly 1 map-range finding, got %d: %v", len(mr), mr)
	}
	wantChain := []string{
		"specimen/internal/simt.RunGPU",
		"specimen/internal/simt.helperA",
		"specimen/internal/simt.helperB",
	}
	if got := mr[0].Chain; !slices.Equal(got, wantChain) || mr[0].Root != wantChain[0] {
		t.Errorf("map-range root %q, chain %v; want chain %v", mr[0].Root, got, wantChain)
	}
	if mr[0].File != "internal/simt/engine.go" {
		t.Errorf("map-range file = %q", mr[0].File)
	}

	ha := byCheck(fs, CheckHotPathAlloc)
	if len(ha) != 1 {
		t.Fatalf("want exactly 1 hotpath-alloc finding, got %d: %v", len(ha), ha)
	}
	wantChain = []string{
		"specimen/internal/simt.stepOnce",
		"specimen/internal/simt.mid",
		"specimen/internal/simt.leafAlloc",
	}
	if got := ha[0].Chain; !slices.Equal(got, wantChain) {
		t.Errorf("hotpath-alloc chain = %v, want %v", got, wantChain)
	}

	if wc := byCheck(fs, CheckWallClock); len(wc) != 1 || wc[0].Func != "specimen/internal/simt.stampNow" || len(wc[0].Chain) != 3 {
		t.Errorf("want 1 wallclock finding in stampNow, reached from RunGPU, got %v", wc)
	}
	if gr := byCheck(fs, CheckGlobalRand); len(gr) != 1 || gr[0].Func != "specimen/internal/simt.jitter" || len(gr[0].Chain) != 3 {
		t.Errorf("want 1 global-rand finding in jitter, reached from RunGPU, got %v", gr)
	}

	// The line-allowed range in sortedTotal must be suppressed even
	// though sortedTotal is reachable from the root.
	for _, f := range fs {
		if f.Func == "specimen/internal/simt.sortedTotal" {
			t.Errorf("suppressed range in sortedTotal still reported: %v", f)
		}
	}
}

// TestPlantedHazards pins six hazards planted in a service file that
// no det root reaches. Each is reported under its check name, with no
// witness chain. Half of them sit in package-level initializers, which
// no function body contains; the ranges are over a map parameter, a map
// a call returns and an untyped package map var, which only type
// information shows to be maps.
func TestPlantedHazards(t *testing.T) {
	prog := load(t, specimen)
	type site struct{ check, fn string }
	const init = "specimen/internal/service.init@clock.go"
	want := []site{
		{CheckWallClock, init},
		{CheckMapRange, init},
		{CheckGoCapturedWrite, init},
		{CheckMapRange, "specimen/internal/service.tally"},
		{CheckMapRange, "specimen/internal/service.first"},
		{CheckGoCapturedWrite, "specimen/internal/service.lastSeen"},
	}
	var got []site
	for _, f := range BuildGraph(prog).Hazards() {
		if f.File != "internal/service/clock.go" {
			continue
		}
		if f.Root != "" || f.Chain != nil {
			t.Errorf("no det root reaches %s, yet it has root %q, chain %v", f.Func, f.Root, f.Chain)
		}
		got = append(got, site{f.Check, f.Func})
	}
	if !slices.Equal(got, want) {
		t.Errorf("planted hazards reported as\n%v\nwant\n%v", got, want)
	}
}

func TestSpecimenRoots(t *testing.T) {
	g := BuildGraph(load(t, specimen))
	det, hot := g.Roots()
	if why := det["specimen/internal/simt.RunGPU"]; why == "" {
		t.Errorf("RunGPU not a det root; det roots: %v", det)
	}
	if why := hot["specimen/internal/simt.stepOnce"]; !strings.Contains(why, "directive") {
		t.Errorf("stepOnce not a directive hot root; hot roots: %v", hot)
	}
	// The doc-comment directive must not promote the whole file.
	if _, ok := hot["specimen/internal/simt.helperA"]; ok {
		t.Error("helperA became a hot root from a doc-comment directive on stepOnce")
	}
	// A file-level tag covers the file's initializers too.
	if why := hot["specimen/internal/cases.init@hotfile.go"]; !strings.Contains(why, "file-level") {
		t.Errorf("hotfile.go's initializers not a file-level hot root; hot roots: %v", hot)
	}
}

func TestSpecHashDrift(t *testing.T) {
	fs := CheckSpecHashDrift(load(t, specimen))
	if len(fs) != 2 {
		t.Fatalf("want exactly 2 spec-hash findings, got %d: %v", len(fs), fs)
	}
	var jobSpec, fullSpec []Finding
	for _, f := range fs {
		if strings.Contains(f.Msg, "JobSpec") {
			jobSpec = append(jobSpec, f)
		}
		if strings.Contains(f.Msg, "FullSpec") {
			fullSpec = append(fullSpec, f)
		}
	}
	if len(jobSpec) != 1 || !strings.Contains(jobSpec[0].Msg, "Debug") {
		t.Errorf("want exactly 1 JobSpec finding naming Debug, got %v", jobSpec)
	}
	if len(fullSpec) != 1 || !strings.Contains(fullSpec[0].Msg, "Extra") {
		t.Errorf("want exactly 1 FullSpec finding naming Extra, got %v", fullSpec)
	}
}

func TestMetricsRegistration(t *testing.T) {
	fs := CheckMetricsRegistration(load(t, specimen))
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 metrics-registration finding, got %d: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "specimen/internal/stats.Orphan") {
		t.Errorf("finding does not name the orphan: %v", fs[0])
	}
}

// TestUnreachableRoots pins the unreachable check's roots on the
// specimen: the functions only the root module calls, directly or
// through an interface it resolves to the specimen's own, are reported
// when that module is not loaded, the test-support package is exempt,
// and the allowed checker counts once.
func TestUnreachableRoots(t *testing.T) {
	prog := load(t, specimen)
	const benchOnly = "specimen/internal/reach.BenchOnly"
	fs, _ := BuildGraph(prog).Unreachable()
	for _, id := range []string{benchOnly, "specimen/internal/reach.NewShape", "specimen/internal/reach.(square).Area"} {
		if !slices.ContainsFunc(fs, func(f Finding) bool { return f.Func == id }) {
			t.Errorf("without the root module, %s is not reported: %v", id, fs)
		}
	}
	g := BuildGraph(prog, load(t, specimenBench))
	fs, c := g.Unreachable()
	var ids []string
	for _, f := range fs {
		ids = append(ids, f.Func)
	}
	if want := []string{"specimen/internal/reach.Lerp", "specimen/internal/reach.clamp"}; !slices.Equal(ids, want) {
		t.Errorf("unreachable = %v, want %v", ids, want)
	}
	if c.Allowed != 1 || c.Exempt != 1 || c.Reached+len(fs)+c.Exempt != g.NumFuncs() {
		t.Errorf("census %+v over %d funcs; want 1 allowed, 1 exempt, and every function reached, reported or exempt", c, g.NumFuncs())
	}
	roots := g.liveRoots()
	for _, id := range []string{
		"specimen/cmd/specimen.main",
		"specimen/internal/cases.init@roots.go",
		"specimen/internal/reach.(Level).String",
		"specimen/internal/reach.Validate",
		benchOnly,
	} {
		if !roots[id] {
			t.Errorf("%s is not a root of the unreachable check", id)
		}
	}
	if roots["specimen/internal/cluster.Start"] {
		t.Error("an exempt package's function became a root")
	}
}

// TestRealTreeClean locks the green state: the shipped sources carry
// no unsuppressed findings, unreachable code included, the loader
// health counters prove the pass actually analyzed the module, and the
// det roots are exactly the engine and harness entry points. The
// methods the standard library calls through interfaces that name its
// own types (http.Handler, types.Importer) are roots only when those
// interfaces come from the program's own imports.
func TestRealTreeClean(t *testing.T) {
	g := BuildGraph(load(t, realTree), load(t, realBench))
	if n := g.NumFuncs(); n < 500 {
		t.Errorf("suspiciously small call graph: %d funcs", n)
	}
	det, hot := g.Roots()
	var ids []string
	for id := range det {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if want := []string{
		"repro/internal/harness.RunNamed",
		"repro/internal/harness.RunNamedCtx",
		"repro/internal/simt.RunGPUCtx",
	}; !slices.Equal(ids, want) {
		t.Errorf("det roots = %v, want exactly %v", ids, want)
	}
	if len(hot) < 10 {
		t.Errorf("want >= 10 hot roots (per-cycle directives), got %v", hot)
	}
	roots := g.liveRoots()
	for _, id := range []string{
		"repro/internal/shard.(*Proxy).ServeHTTP",
		"repro/internal/srcgraph.(*moduleImporter).Import",
	} {
		if !roots[id] {
			t.Errorf("%s is not a root of the unreachable check", id)
		}
	}
	if fs := g.Analyze(); len(fs) != 0 {
		t.Errorf("real tree has findings:\n%v", fs)
	}
}

// TestHotConeCoversPerCycleCallees pins the reason function-granular
// tags could replace the file tags: propagation covers the tagged
// functions' whole callee cones, including the memory hierarchy, the
// kernels' Step behind simt.Kernel and the tagged policy hooks (TBC,
// DMK, SER and the DRS control's gate and tick). The kernels are
// reached only through interface edges, which exist only when module
// packages are type-checked against each other.
func TestHotConeCoversPerCycleCallees(t *testing.T) {
	g := BuildGraph(load(t, realTree))
	hot := g.propagate(func(n *funcNode) bool { return n.hotRoot })
	for _, want := range []string{
		"repro/internal/simt.(*SMX).issueMem",
		"repro/internal/simt.(*SMX).resolve",
		"repro/internal/simt.(*warpState).retireLanes",
		"repro/internal/memsys.(*SMXMem).WarpAccessEx",
		"repro/internal/memsys.(*cache).access",
		"repro/internal/memsys.(*L2Port).Reset",
		"repro/internal/kernels.(*Aila).Step",
		"repro/internal/kernels.(*WhileIf).Step",
		"repro/internal/tbc.(*Wrapper).compact",
		"repro/internal/dmk.(*Wrapper).tick",
		"repro/internal/ser.(*Wrapper).trySpawn",
		"repro/internal/core.(*Control).tick",
		"repro/internal/core.(*Control).findMove",
		"repro/internal/core.(*Control).gate",
	} {
		if _, ok := hot[want]; !ok {
			t.Errorf("%s not hot-reachable", want)
		}
	}
}

// TestDetConeCoversPolicies pins the interface edges of the det cone:
// the harness builds each SMX's policy instance through
// reorder.Policy, and the engine steps the kernel through simt.Kernel.
// reorder's own Baseline and the kernels are reached only through
// interface edges checked against the source-checked packages.
func TestDetConeCoversPolicies(t *testing.T) {
	g := BuildGraph(load(t, realTree))
	const root = "repro/internal/harness.RunNamedCtx"
	if n := g.nodes[root]; n == nil || !n.detRoot {
		t.Fatalf("%s is not a det root", root)
	}
	det := g.propagate(func(n *funcNode) bool { return n.id == root })
	for _, want := range []string{
		"repro/internal/core.(*Policy).NewSMX",
		"repro/internal/reorder.(*Baseline).NewSMX",
		"repro/internal/kernels.(*Aila).Step",
	} {
		if _, ok := det[want]; !ok {
			t.Errorf("%s does not reach %s", root, want)
		}
	}
}
