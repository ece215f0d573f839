package progcheck_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/srcgraph"
)

// drslint runs two passes: this package's kernel-program verifier and
// the source lint in internal/srcgraph. The tests below pin the source
// lint's rules one behaviour at a time. Each runs the lint over the
// srcgraph specimen module's cases package, which holds one function
// per behaviour, and checks what is reported in one function.
// srcgraph's TestSpecimenWants checks the same files line by line.

const specimenDir = "../srcgraph/testdata/specimen"

type casesLint struct {
	pkg      *srcgraph.Package
	findings []srcgraph.Finding
}

// lintCases loads the cases package and runs the hazard checks once
// for all tests; nothing mutates the result.
var lintCases = sync.OnceValues(func() (*casesLint, error) {
	prog, err := srcgraph.Load(specimenDir, "./internal/cases")
	if err != nil {
		return nil, err
	}
	if len(prog.Pkgs) != 1 {
		return nil, fmt.Errorf("loaded %d packages, want 1", len(prog.Pkgs))
	}
	return &casesLint{pkg: prog.Pkgs[0], findings: srcgraph.BuildGraph(prog).Hazards()}, nil
})

// lint returns the findings in one function of the cases package,
// named as in a finding's Func after the package path: "f" or
// "(*T).m". It fails the test when the package declares no such
// function, so a quiet case cannot pass by being absent.
func lint(t *testing.T, fn string) []srcgraph.Finding {
	t.Helper()
	c, err := lintCases()
	if err != nil {
		t.Fatalf("load specimen cases package: %v", err)
	}
	if !declares(c.pkg, fn) {
		t.Fatalf("specimen package cases declares no %s", fn)
	}
	var out []srcgraph.Finding
	for _, f := range c.findings {
		if f.Func == c.pkg.Path+"."+fn {
			out = append(out, f)
		}
	}
	return out
}

func declares(pkg *srcgraph.Package, fn string) bool {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := decl.Name.Name
			if decl.Recv != nil {
				name = "(" + types.ExprString(decl.Recv.List[0].Type) + ")." + name
			}
			if name == fn {
				return true
			}
		}
	}
	return false
}

func byCheck(fs []srcgraph.Finding, check string) []srcgraph.Finding {
	var out []srcgraph.Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// quiet fails the test if the lint reports anything in fn.
func quiet(t *testing.T, fn string) {
	t.Helper()
	if fs := lint(t, fn); len(fs) != 0 {
		t.Errorf("%s flagged: %v", fn, fs)
	}
}

// sourceLine returns the specimen source line a finding points at.
func sourceLine(t *testing.T, f srcgraph.Finding) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(specimenDir, f.File))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	if f.Line < 1 || f.Line > len(lines) {
		t.Fatalf("%v: line out of range", f)
	}
	return lines[f.Line-1]
}

// wallClockNames returns the time functions named by fs's wallclock
// findings, sorted.
func wallClockNames(fs []srcgraph.Finding) []string {
	var names []string
	for _, f := range byCheck(fs, srcgraph.CheckWallClock) {
		name, _, _ := strings.Cut(f.Msg, " ")
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func TestLintMapRangeLocalMake(t *testing.T) {
	if fs := lint(t, "mapRangeLocalMake"); len(byCheck(fs, srcgraph.CheckMapRange)) != 1 {
		t.Fatalf("want 1 map-range finding for a range over a local made map, got %v", fs)
	}
}

func TestLintMapRangeStructField(t *testing.T) {
	if fs := lint(t, "(*sched).pick"); len(byCheck(fs, srcgraph.CheckMapRange)) != 1 {
		t.Fatalf("want 1 map-range finding for a range over a map-typed field, got %v", fs)
	}
}

func TestLintMapRangeAllowed(t *testing.T) {
	quiet(t, "mapRangeAllowed")
}

func TestLintSliceRangeNotFlagged(t *testing.T) {
	quiet(t, "sliceRange")
}

func TestLintWallClock(t *testing.T) {
	if names := wallClockNames(lint(t, "timerSurface")); !slices.Contains(names, "time.Now") {
		t.Fatalf("time.Now not flagged; wallclock findings name %v", names)
	}
}

// Since, Now, NewTimer and Tick are the package's clock API; the
// timer's Stop method is not.
func TestLintWallClockTimerSurface(t *testing.T) {
	fs := lint(t, "timerSurface")
	want := []string{"time.NewTimer", "time.Now", "time.Since", "time.Tick"}
	if names := wallClockNames(fs); !slices.Equal(names, want) {
		t.Fatalf("wallclock findings name %v, want %v: %v", names, want, fs)
	}
	if len(fs) != len(want) {
		t.Fatalf("want only the %d wallclock findings, got %v", len(want), fs)
	}
}

func TestLintGlobalRand(t *testing.T) {
	if fs := lint(t, "globalRand"); len(byCheck(fs, srcgraph.CheckGlobalRand)) != 1 {
		t.Fatalf("want 1 global-rand finding for rand.Intn, got %v", fs)
	}
}

func TestLintSeededRandNotFlagged(t *testing.T) {
	quiet(t, "seededRand")
}

// capturedWrite assigns a captured local and a package var.
func TestLintGoroutineCapturedWrite(t *testing.T) {
	if fs := lint(t, "capturedWrite"); len(byCheck(fs, srcgraph.CheckGoCapturedWrite)) != 2 {
		t.Fatalf("want 2 goroutine-captured-write findings, got %v", fs)
	}
}

func TestLintGoroutineIndexWriteNotFlagged(t *testing.T) {
	quiet(t, "indexWrite")
}

func TestLintGoroutineLocalWriteNotFlagged(t *testing.T) {
	quiet(t, "localWrite")
}

// TestLintRepoClean: the shipped sources carry no unsuppressed hazard
// findings.
func TestLintRepoClean(t *testing.T) {
	prog, err := srcgraph.Load("../..", "./internal/...", "./cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	if fs := srcgraph.BuildGraph(prog).Hazards(); len(fs) != 0 {
		t.Fatalf("internal/ and cmd/ have hazard findings:\n%v", fs)
	}
}

func TestLintHotpathMapMake(t *testing.T) {
	fs := byCheck(lint(t, "hotMapMake"), srcgraph.CheckHotPathAlloc)
	if len(fs) != 1 {
		t.Fatalf("want 1 hotpath-alloc finding for make(map) in a tagged file, got %v", fs)
	}
	if line := sourceLine(t, fs[0]); !strings.Contains(line, "make(map") {
		t.Errorf("flagged line %d is %q, want the make(map) line", fs[0].Line, line)
	}
}

func TestLintHotpathMapLiteral(t *testing.T) {
	if fs := lint(t, "hotMapLiteral"); len(byCheck(fs, srcgraph.CheckHotPathAlloc)) != 1 {
		t.Fatalf("want 1 hotpath-alloc finding for a map literal in a tagged file, got %v", fs)
	}
}

// hotFreshAppend grows a made slice and a nil-declared one.
func TestLintHotpathFreshSliceAppend(t *testing.T) {
	fs := byCheck(lint(t, "hotFreshAppend"), srcgraph.CheckHotPathAlloc)
	if len(fs) != 2 || fs[0].Line == fs[1].Line {
		t.Fatalf("want 2 fresh-slice append findings on two lines, got %v", fs)
	}
	for _, f := range fs {
		if line := sourceLine(t, f); !strings.Contains(line, "append(") {
			t.Errorf("flagged line %d is %q, want an append", f.Line, line)
		}
	}
}

// The pooled idiom (reslice a field to length zero, append, store
// back) is what hot code should do, and so are appends to fields.
func TestLintHotpathPooledResliceNotFlagged(t *testing.T) {
	quiet(t, "(*warp).resolve")
}

func TestLintHotpathUntaggedFileNotFlagged(t *testing.T) {
	quiet(t, "untagged")
}

func TestLintHotpathAllowed(t *testing.T) {
	quiet(t, "hotAllowed")
}

// make([]T, n) without append growth allocates but does not churn.
func TestLintHotpathPlainMakeSliceNotFlagged(t *testing.T) {
	quiet(t, "hotPlainMake")
}

// One directive naming two checks suppresses both on the next line.
func TestLintAllowMultipleChecksOneLine(t *testing.T) {
	quiet(t, "allowTwoChecks")
}

// The directive as a trailing comment on the flagged line itself.
func TestLintAllowTrailingOnStatementLine(t *testing.T) {
	quiet(t, "allowTrailing")
}

// Free text after the first "--" is ignored, further dashes included.
func TestLintAllowReasonWithParenthetical(t *testing.T) {
	quiet(t, "allowParenthetical")
}

// The grammar is line comments only: a /* */ block that mentions the
// allow directive suppresses nothing.
func TestLintAllowInBlockCommentInert(t *testing.T) {
	if fs := lint(t, "allowInBlockComment"); len(byCheck(fs, srcgraph.CheckMapRange)) != 1 {
		t.Fatalf("block-comment pseudo-directive suppressed the map-range finding: %v", fs)
	}
}

// Neither a block comment above blockTagged nor a free-standing one in
// the file makes anything there hot.
func TestLintHotpathInBlockCommentInert(t *testing.T) {
	quiet(t, "blockTagged")
	quiet(t, "untagged")
}

// A doc-comment directive marks only its function, not its file.
func TestLintHotpathFunctionGranular(t *testing.T) {
	fs := byCheck(lint(t, "step"), srcgraph.CheckHotPathAlloc)
	if len(fs) != 1 || !strings.Contains(sourceLine(t, fs[0]), "func step") {
		t.Fatalf("want 1 hotpath-alloc finding on step's line, got %v", fs)
	}
	quiet(t, "setup")
}
