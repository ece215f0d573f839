// Package srcgraph is the repo's source lint: a type-aware,
// whole-program pass over the module's non-test Go. It type-checks the
// module (go/types over export data from the go build cache — no
// external dependencies), builds a static call graph over every
// function and package-level initializer, marks the functions where
// the determinism and hot-path contracts are rooted, and propagates
// reachability along call edges.
//
// Four analyses share the loaded program:
//
//   - Hazards (hazards.go): map-range, wallclock, global-rand and
//     goroutine-captured-write fire wherever they occur, judged with
//     full type information (a range over a map-typed parameter or a
//     map a call returns is seen as such). When a determinism root —
//     an engine or harness entry point — reaches the site, the finding
//     carries the witness call chain from the root. hotpath-alloc fires
//     only in the hot cone, the functions reachable from a
//     //drslint:hotpath root.
//
//   - Spec-hash drift (speccheck.go): every struct with a Canonical
//     content-address encoder is cross-checked field by field against
//     what that encoder actually emits; a field that exists on the spec
//     but not in the encoding would merge distinct jobs under one
//     content address.
//
//   - Metrics registration (metricscheck.go): every struct that carries
//     `metrics:"..."` field tags must be reached by a RegisterStruct
//     call, directly or as a nested field of a registered struct;
//     otherwise the tags are dead annotation and the counters silently
//     never appear in snapshots.
//
//   - Unreachable code (unreachable.go): a function no root reaches is
//     a finding. The roots are every main.main and package initializer,
//     every function a root module references (a module outside the
//     tree that imports it, such as bench/, loaded on its own), every
//     method the standard library calls through fmt.Stringer, error,
//     Unwrap() error, json.Marshaler, http.Handler, sort.Interface or
//     types.Importer, and every function allowed with
//     //drslint:allow unreachable. The test-support packages
//     (testSupportPkgs) are exempt.
//
// The directive grammar (directives.go) has one parser. A function is
// a hot root when its doc comment carries //drslint:hotpath; a
// file-level tag marks every function and initializer in the file. A
// //drslint:allow line comment suppresses the named checks on its line
// and the next; in a function's doc comment it covers the function.
//
// This is a tripwire, not a proof. Interface calls are expanded by
// implements-based class-hierarchy analysis, which may add edges no
// execution takes; but calls through plain function values cannot be
// resolved statically, so the cones can miss code that runs (a policy
// hook the engine calls through a simt.Hooks field is hot only by its
// own directive). A reference counts as an edge, so the unreachable
// check sees a method value stored into such a field as reached from
// where it is stored.
package srcgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Check identifiers, the names //drslint:allow directives use.
const (
	// CheckMapRange: range over a map, which iterates in randomized
	// order.
	CheckMapRange = "map-range"
	// CheckWallClock: a read of, or a schedule against, the wall clock.
	CheckWallClock = "wallclock"
	// CheckGlobalRand: a draw from math/rand's process-seeded source.
	CheckGlobalRand = "global-rand"
	// CheckGoCapturedWrite: a goroutine's function literal assigns to a
	// variable declared outside it.
	CheckGoCapturedWrite = "goroutine-captured-write"
	// CheckHotPathAlloc: a map allocation, or append growth of a slice
	// freshly allocated in the same function, in the hot cone.
	CheckHotPathAlloc = "hotpath-alloc"
	// CheckSpecHash flags drift between a content-addressed spec struct
	// and its canonical encoder.
	CheckSpecHash = "spec-hash"
	// CheckMetricsReg flags metrics-tagged structs never reached by a
	// RegisterStruct call.
	CheckMetricsReg = "metrics-registration"
	// CheckUnreachable flags a production function that no binary,
	// package initializer or root module reaches.
	CheckUnreachable = "unreachable"
)

// Finding is one graph-pass diagnostic.
type Finding struct {
	// File is the module-relative path of the hazard site.
	File string `json:"file"`
	// Line is the 1-based source line.
	Line int `json:"line"`
	// Check classifies the diagnostic (see the Check* constants).
	Check string `json:"check"`
	// Func is the fully qualified function containing the hazard
	// (empty for the struct-level completeness checks).
	Func string `json:"func,omitempty"`
	// Root is the determinism or hot root that reaches Func.
	Root string `json:"root,omitempty"`
	// Chain is the witness call path from Root to Func, inclusive.
	Chain []string `json:"chain,omitempty"`
	// Msg is the human-readable diagnostic.
	Msg string `json:"msg"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Check, f.Msg)
	if len(f.Chain) > 1 {
		s += fmt.Sprintf(" (reached via %s)", strings.Join(f.Chain, " -> "))
	}
	return s
}

// Analyze runs every check over the graph's program and returns the
// findings sorted by file, line and check.
func (g *Graph) Analyze() []Finding {
	unreached, _ := g.Unreachable()
	all := append(g.Hazards(), unreached...)
	all = append(all, CheckSpecHashDrift(g.prog)...)
	all = append(all, CheckMetricsRegistration(g.prog)...)
	SortFindings(all)
	return all
}

// SortFindings orders findings by file, line, check and message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}
