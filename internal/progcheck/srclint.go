package progcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The simulator must be bit-reproducible: the same scene and seed must
// produce the same cycle counts on every run, or the paper's figures
// cannot be regenerated and regressions cannot be diffed. The source
// lint flags the Go constructs that most commonly break that:
//
//   - map-range: ranging over a map touches elements in randomized
//     order; if the loop body feeds simulation state (picks a winner,
//     mutates counters, launches warps), results differ run to run.
//   - wallclock / global-rand: time.Now and the global math/rand
//     functions smuggle ambient state into what must be a pure function
//     of the inputs.
//   - goroutine-captured-write: a `go func(){...}` that assigns to a
//     variable captured from the enclosing scope is a data race unless
//     externally synchronized; races are nondeterminism at best.
//   - hotpath-alloc: allocation churn in code tagged //drslint:hotpath
//     — a file-level tag marks every function in the file, a tag in one
//     function's doc comment marks just that function (the simulator's
//     per-cycle code: SMX stepping, warp divergence resolution, cache
//     access). A map allocated or a fresh local slice
//     grown by append on a path that runs every simulated cycle is pure
//     GC pressure at millions of cycles per experiment; hot code reuses
//     per-warp/per-port scratch buffers (x := s.buf[:0] ... s.buf = x)
//     instead. The check flags make(map...)/map literals and appends
//     that grow a slice freshly allocated in the same function; appends
//     to pooled reslices and struct-field targets pass.
//
// The analysis is deliberately syntactic (go/ast + go/parser, no type
// checker): map types are inferred from declarations visible in the
// same package — struct fields, package vars, and local `make(map...)`
// or map-literal declarations. That misses maps that arrive through
// interfaces or other packages, and a lint that can miss is fine: it is
// a tripwire, not a proof.
//
// Intentional, order-insensitive uses are suppressed with a comment on
// the statement or the line above it:
//
//	//drslint:allow map-range -- selection has a deterministic tie-break

// SrcCheck identifies one source-lint diagnostic class.
type SrcCheck string

// Source lint checks.
const (
	// CheckMapRange: range over a map in simulation code.
	CheckMapRange SrcCheck = "map-range"
	// CheckWallClock: wall-clock time read in simulation code.
	CheckWallClock SrcCheck = "wallclock"
	// CheckGlobalRand: use of math/rand's global (process-seeded)
	// functions.
	CheckGlobalRand SrcCheck = "global-rand"
	// CheckGoCapturedWrite: goroutine body assigns to a captured
	// variable.
	CheckGoCapturedWrite SrcCheck = "goroutine-captured-write"
	// CheckHotPathAlloc: per-cycle allocation (map, or append growth of
	// a fresh local slice) in //drslint:hotpath-tagged code.
	CheckHotPathAlloc SrcCheck = "hotpath-alloc"
)

// HotpathDirective tags a file (or, in the srcgraph pass, a single
// function) as per-cycle hot-path code, enabling the hotpath-alloc
// check for it.
const HotpathDirective = "//drslint:hotpath"

// SrcFinding is one source-lint diagnostic.
type SrcFinding struct {
	// File is the path as given to LintDirs (module-relative when the
	// roots are).
	File string `json:"file"`
	// Line is the 1-based source line.
	Line int `json:"line"`
	// Check classifies the diagnostic.
	Check SrcCheck `json:"check"`
	// Msg is the human-readable diagnostic.
	Msg string `json:"msg"`
}

func (f SrcFinding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Check, f.Msg)
}

// AllowDirective is the suppression comment prefix.
const AllowDirective = "//drslint:allow "

// LintDirs lints every non-test .go file under the given roots
// (recursively) and returns the findings sorted by file and line.
func LintDirs(roots ...string) ([]SrcFinding, error) {
	var files []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == root {
					return nil // never skip the root itself (it may be ".")
				}
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)

	// Group by directory so same-package declarations (struct fields,
	// package vars) inform map-type inference.
	byDir := make(map[string][]string)
	var dirs []string
	for _, f := range files {
		d := filepath.Dir(f)
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], f)
	}
	sort.Strings(dirs)

	var all []SrcFinding
	for _, d := range dirs {
		fs, err := lintPackageFiles(byDir[d])
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		return all[i].Line < all[j].Line
	})
	return all, nil
}

// LintSource lints a single file's source text (testing helper; the
// package context is just this file).
func LintSource(filename, src string) ([]SrcFinding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	decls := collectDecls([]*ast.File{f})
	return lintFile(fset, filename, f, decls), nil
}

func lintPackageFiles(paths []string) ([]SrcFinding, error) {
	fset := token.NewFileSet()
	parsed := make([]*ast.File, 0, len(paths))
	names := make([]string, 0, len(paths))
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("progcheck: parse %s: %w", p, err)
		}
		parsed = append(parsed, f)
		names = append(names, p)
	}
	decls := collectDecls(parsed)
	var all []SrcFinding
	for i, f := range parsed {
		all = append(all, lintFile(fset, names[i], f, decls)...)
	}
	return all, nil
}

// pkgDecls records which names the package declares with map types:
// struct fields ("field") and package-level vars.
type pkgDecls struct {
	fields map[string]bool // field names of map type anywhere in the package
	vars   map[string]bool // package-level var names of map type
}

func isMapType(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.MapType:
		return true
	case *ast.ParenExpr:
		return isMapType(t.X)
	}
	return false
}

func collectDecls(files []*ast.File) *pkgDecls {
	d := &pkgDecls{fields: make(map[string]bool), vars: make(map[string]bool)}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.StructType:
				for _, fl := range t.Fields.List {
					if isMapType(fl.Type) {
						for _, name := range fl.Names {
							d.fields[name.Name] = true
						}
					}
				}
			case *ast.GenDecl:
				if t.Tok == token.VAR {
					for _, spec := range t.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						if vs.Type != nil && isMapType(vs.Type) {
							for _, name := range vs.Names {
								d.vars[name.Name] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return d
}

// lintFile runs all checks over one file.
func lintFile(fset *token.FileSet, path string, f *ast.File, decls *pkgDecls) []SrcFinding {
	allowed := collectAllows(f, fset)
	var fs []SrcFinding
	add := func(pos token.Pos, check SrcCheck, format string, args ...any) {
		line := fset.Position(pos).Line
		if allowed[line][check] || allowed[line-1][check] {
			return
		}
		fs = append(fs, SrcFinding{File: path, Line: line, Check: check, Msg: fmt.Sprintf(format, args...)})
	}

	// Names bound to the math/rand and time imports in this file.
	randNames := importNames(f, "math/rand", "math/rand/v2")
	timeNames := importNames(f, "time")
	// The hotpath-alloc check is enabled by the //drslint:hotpath tag at
	// either granularity: a file-level tag (a free-standing comment)
	// marks every function in the file as per-cycle code; a tag in one
	// function's doc comment marks just that function.
	fileHot := fileTaggedHotpath(f)
	hotSuppress := strings.TrimSpace(AllowDirective) + " hotpath-alloc -- <why this allocation is off the per-cycle path>"

	var walk func(n ast.Node, hot bool, localMaps, freshSlices map[string]bool)
	walk = func(n ast.Node, hot bool, localMaps, freshSlices map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.FuncDecl:
				if t.Body != nil {
					// Fresh local scopes per function.
					walk(t.Body, fileHot || docTaggedHotpath(t.Doc),
						make(map[string]bool), make(map[string]bool))
					return false
				}
			case *ast.AssignStmt:
				// Track locals declared as maps: x := make(map[...]...),
				// x := map[...]...{} — and locals holding freshly
				// allocated slices (as opposed to pooled reslices like
				// x := s.buf[:0], which the hot-path check permits).
				if t.Tok == token.DEFINE {
					for i, lhs := range t.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || i >= len(t.Rhs) {
							continue
						}
						if exprMakesMap(t.Rhs[i]) {
							localMaps[id.Name] = true
						}
						if exprMakesFreshSlice(t.Rhs[i]) {
							freshSlices[id.Name] = true
						} else {
							delete(freshSlices, id.Name)
						}
					}
				}
			case *ast.GenDecl:
				if t.Tok == token.VAR {
					for _, spec := range t.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && vs.Type != nil {
							if isMapType(vs.Type) {
								for _, name := range vs.Names {
									localMaps[name.Name] = true
								}
							}
							// var x []T appends from nil: every growth
							// allocates.
							if at, ok := vs.Type.(*ast.ArrayType); ok && at.Len == nil && len(vs.Values) == 0 {
								for _, name := range vs.Names {
									freshSlices[name.Name] = true
								}
							}
						}
					}
				}
			case *ast.RangeStmt:
				if rangesOverMap(t.X, decls, localMaps) {
					add(t.For, CheckMapRange,
						"range over map %s iterates in randomized order; simulation state fed from it diverges run to run (sort the keys, add a deterministic tie-break, or suppress with %q)",
						exprString(t.X), strings.TrimSpace(AllowDirective)+" map-range -- <why it is order-insensitive>")
				}
			case *ast.CompositeLit:
				if hot && t.Type != nil && isMapType(t.Type) {
					add(t.Pos(), CheckHotPathAlloc,
						"map literal allocates in //drslint:hotpath code; per-cycle map churn is GC pressure — use reusable scratch arrays (cf. simt.Warp's uniqBuf/maskBuf) or suppress with %q",
						hotSuppress)
				}
			case *ast.CallExpr:
				if hot {
					if id, ok := t.Fun.(*ast.Ident); ok && id.Obj == nil {
						switch {
						case id.Name == "make" && len(t.Args) > 0 && isMapType(t.Args[0]):
							add(t.Pos(), CheckHotPathAlloc,
								"make(map) allocates in //drslint:hotpath code; per-cycle map churn is GC pressure — use reusable scratch arrays (cf. simt.Warp's uniqBuf/maskBuf) or suppress with %q",
								hotSuppress)
						case id.Name == "append" && len(t.Args) > 0:
							if base, ok := t.Args[0].(*ast.Ident); ok && freshSlices[base.Name] {
								add(t.Pos(), CheckHotPathAlloc,
									"append grows %q, a slice freshly allocated in this function, in //drslint:hotpath code; reuse a pooled buffer (x := s.buf[:0] ... s.buf = x) or suppress with %q",
									base.Name, hotSuppress)
							}
						}
					}
				}
			case *ast.SelectorExpr:
				if id, ok := t.X.(*ast.Ident); ok && id.Obj == nil {
					if timeNames[id.Name] && WallClockFuncs[t.Sel.Name] {
						add(t.Pos(), CheckWallClock,
							"%s.%s reads or schedules against the wall clock; simulation code must be a pure function of its inputs",
							id.Name, t.Sel.Name)
					}
					if randNames[id.Name] && GlobalRandFuncs[t.Sel.Name] {
						add(t.Pos(), CheckGlobalRand,
							"%s.%s uses the process-global RNG; use a seeded generator (internal/rng) instead",
							id.Name, t.Sel.Name)
					}
				}
			case *ast.GoStmt:
				if lit, ok := t.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineWrites(lit, add)
					// Still lint the body for the other checks;
					// checkGoroutineWrites only covers captured assignments.
					walk(lit.Body, hot, localMaps, freshSlices)
				}
				return false // checked; don't re-trigger on nested nodes
			}
			return true
		})
	}
	walk(f, fileHot, make(map[string]bool), make(map[string]bool))
	return fs
}

// fileTaggedHotpath reports whether the file carries a file-level
// //drslint:hotpath tag: the directive in any comment group that is not
// a function's doc comment (a doc-comment directive marks only that
// function — see docTaggedHotpath).
func fileTaggedHotpath(f *ast.File) bool {
	funcDocs := make(map[*ast.CommentGroup]bool)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			funcDocs[fd.Doc] = true
		}
	}
	for _, cg := range f.Comments {
		if funcDocs[cg] {
			continue
		}
		for _, c := range cg.List {
			if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
				return true
			}
		}
	}
	return false
}

// docTaggedHotpath reports whether a function's doc comment carries the
// //drslint:hotpath directive, marking that one function as per-cycle
// code.
func docTaggedHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}

// exprMakesFreshSlice reports whether an expression evidently allocates
// a new slice: make([]T, ...) or a slice composite literal. Reslices of
// pooled storage (s.buf[:0]) and values read from fields or calls are
// not fresh — appending to them reuses capacity.
func exprMakesFreshSlice(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.CallExpr:
		if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "make" && len(t.Args) > 0 {
			at, ok := t.Args[0].(*ast.ArrayType)
			return ok && at.Len == nil
		}
	case *ast.CompositeLit:
		if at, ok := t.Type.(*ast.ArrayType); ok {
			return at.Len == nil
		}
	}
	return false
}

// WallClockFuncs is the package-level API of time that reads the wall
// clock or schedules against it. Everything here makes behavior depend
// on real elapsed time: Now/Since/Until read the clock directly, and
// the timer and ticker constructors (NewTimer, NewTicker, Tick, After,
// AfterFunc) deliver events whose order against simulation progress is
// scheduler- and load-dependent. Shared by the syntactic lint and the
// srcgraph interprocedural pass.
var WallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
	"After": true, "AfterFunc": true,
}

// GlobalRandFuncs is the package-level API of math/rand (and v2) that
// draws from the shared, process-seeded source. Shared by the syntactic
// lint and the srcgraph interprocedural pass.
var GlobalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// importNames returns the identifiers the file binds to any of the
// given import paths (honoring renames; "_" and "." are skipped).
func importNames(f *ast.File, paths ...string) map[string]bool {
	want := make(map[string]bool, len(paths))
	for _, p := range paths {
		want[p] = true
	}
	names := make(map[string]bool)
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !want[p] {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name != "_" && name != "." {
			names[name] = true
		}
	}
	return names
}

// exprMakesMap reports whether an expression evidently produces a map:
// make(map[...]...), a map composite literal, or a conversion to one.
func exprMakesMap(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.CallExpr:
		if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "make" && len(t.Args) > 0 {
			return isMapType(t.Args[0])
		}
	case *ast.CompositeLit:
		return t.Type != nil && isMapType(t.Type)
	}
	return false
}

// exprString renders the small expression forms the lint reports on
// (identifiers and selector chains) for diagnostics.
func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t.X) + "." + t.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(t.X) + ")"
	}
	return "<expr>"
}

// rangesOverMap reports whether the ranged expression is evidently a
// map, from local declarations, package-level vars, or struct fields
// declared with map types anywhere in the package.
func rangesOverMap(x ast.Expr, decls *pkgDecls, localMaps map[string]bool) bool {
	switch t := x.(type) {
	case *ast.Ident:
		return localMaps[t.Name] || decls.vars[t.Name]
	case *ast.SelectorExpr:
		return decls.fields[t.Sel.Name]
	case *ast.ParenExpr:
		return rangesOverMap(t.X, decls, localMaps)
	}
	return false
}

// checkGoroutineWrites flags plain assignments to identifiers the
// goroutine body captured from the enclosing scope. Writes through an
// index expression (results[i] = ...) are allowed — the worker-per-
// element idiom is disjoint by construction; a captured scalar write is
// a race.
func checkGoroutineWrites(lit *ast.FuncLit, add func(token.Pos, SrcCheck, string, ...any)) {
	local := make(map[string]bool)
	if lit.Type.Params != nil {
		for _, p := range lit.Type.Params.List {
			for _, name := range p.Names {
				local[name.Name] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if t.Tok == token.DEFINE {
				for _, lhs := range t.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
				return true
			}
			for _, lhs := range t.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || local[id.Name] {
					continue
				}
				add(id.Pos(), CheckGoCapturedWrite,
					"goroutine assigns to captured variable %q; unsynchronized shared writes race (pass it as a parameter, write a disjoint element, or guard with sync)",
					id.Name)
			}
		case *ast.RangeStmt:
			if t.Tok == token.DEFINE {
				if id, ok := t.Key.(*ast.Ident); ok {
					local[id.Name] = true
				}
				if id, ok := t.Value.(*ast.Ident); ok {
					local[id.Name] = true
				}
			}
		case *ast.GenDecl:
			if t.Tok == token.VAR {
				for _, spec := range t.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							local[name.Name] = true
						}
					}
				}
			}
		case *ast.FuncLit:
			// Nested literals get their own pass only via go statements;
			// treat their params as local to avoid false positives.
			if t.Type.Params != nil {
				for _, p := range t.Type.Params.List {
					for _, name := range p.Names {
						local[name.Name] = true
					}
				}
			}
		}
		return true
	})
}

// AllowsByLine maps line -> suppressed checks from //drslint:allow
// comments, using the same grammar the lint applies: the directive
// suppresses the named checks on its own line and the line below it.
// Exported so the srcgraph pass honors the same suppressions.
func AllowsByLine(f *ast.File, fset *token.FileSet) map[int]map[SrcCheck]bool {
	return collectAllows(f, fset)
}

// collectAllows maps line -> suppressed checks from //drslint:allow
// comments.
func collectAllows(f *ast.File, fset *token.FileSet) map[int]map[SrcCheck]bool {
	allows := make(map[int]map[SrcCheck]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, AllowDirective) {
				continue
			}
			rest := strings.TrimPrefix(text, AllowDirective)
			if i := strings.Index(rest, "--"); i >= 0 {
				rest = rest[:i]
			}
			line := fset.Position(c.Pos()).Line
			if allows[line] == nil {
				allows[line] = make(map[SrcCheck]bool)
			}
			for _, name := range strings.Fields(rest) {
				allows[line][SrcCheck(name)] = true
			}
		}
	}
	return allows
}
