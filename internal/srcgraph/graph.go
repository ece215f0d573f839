package srcgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// funcNode is one function (or method) declared in the module, or the
// package-level var initializers of one file, with the call edges and
// hazard sites found in its body. Function literals are attributed to
// their enclosing declaration: a closure's edges count as its
// declarer's, which over- rather than under-approximates where the
// closure may run.
type funcNode struct {
	id   string
	pkg  *Package
	file *ast.File
	pos  token.Pos // the declaration, where an unreachable finding points

	// callees holds resolved outgoing edges, by function id. Interface
	// calls are expanded by class-hierarchy analysis in BuildGraph;
	// calls through plain function values are unresolvable and absent.
	callees map[string]bool

	// hazards are the hazard sites in the body; hotpath-alloc sites
	// are pending the hot-cone verdict.
	hazards []hazard

	// hotRoot/detRoot mark the function as a propagation root; rootWhy
	// says which rule made it one (for diagnostics).
	hotRoot bool
	detRoot bool
	rootWhy string

	// allow holds function-wide suppressions from //drslint:allow
	// directives in the doc comment.
	allow map[string]bool
}

// hazard is one potential finding, held until suppressions (and, for
// hotpath-alloc, the hot cone) decide whether it fires.
type hazard struct {
	pos   token.Pos
	check string
	msg   string
}

// ifaceCall records an unresolved interface method call for the CHA
// expansion: every module type implementing iface contributes its
// method named name to callees.
type ifaceCall struct {
	callees map[string]bool
	iface   *types.Interface
	name    string
}

// Graph is the static call graph over a loaded program.
type Graph struct {
	prog  *Program
	nodes map[string]*funcNode
	order []string // node ids, sorted for deterministic iteration

	// extRefs holds the module functions that root modules reference:
	// modules outside this one's tree that import it, such as bench/.
	extRefs map[string]bool
}

// detRootRule matches built-in determinism roots: the engine entry
// points and the harness Run* API. Everything these reach must be a
// pure function of its inputs — that is the bit-reproducibility
// contract drsd's content-addressed dedup depends on.
type detRootRule struct {
	pkgSuffix    string // import path suffix, e.g. "internal/simt"
	namePrefix   string // function name prefix ("RunGPU" matches RunGPUCtx too)
	exportedOnly bool
	why          string
}

var detRootRules = []detRootRule{
	{"internal/simt", "RunGPU", true, "engine entry point"},
	{"internal/harness", "Run", true, "harness entry point"},
}

// testSupportPkgs are the packages, by import path suffix, that only
// tests import: the unreachable check reports none of their functions.
var testSupportPkgs = []string{"internal/cluster", "internal/statcheck"}

// BuildGraph constructs the call graph: one node per declared function
// with a body and one per file with package-level var initializers,
// direct edges for static calls and references, and class-hierarchy
// edges for interface method calls. Each root module (a module outside
// prog's tree that imports it, loaded on its own) contributes the prog
// functions its sources reference, as roots of the unreachable check.
func BuildGraph(prog *Program, rootMods ...*Program) *Graph {
	g := &Graph{prog: prog, nodes: make(map[string]*funcNode), extRefs: make(map[string]bool)}
	var ifaceCalls []ifaceCall
	add := func(n *funcNode, fileHot bool, body ...ast.Node) {
		if fileHot && !n.hotRoot {
			n.hotRoot = true
			n.rootWhy = "file-level " + HotpathDirective + " tag"
		}
		ifaceCalls = append(ifaceCalls, collectBody(n, body)...)
		g.nodes[n.id] = n
	}

	for _, pkg := range prog.Pkgs {
		inits := 0
		for _, file := range pkg.Files {
			fileHot := fileTaggedHotpath(file)
			var values []ast.Node
			for _, d := range file.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						for _, v := range spec.(*ast.ValueSpec).Values {
							values = append(values, v)
						}
					}
					continue
				}
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				n := newNode(funcID(obj), pkg, file)
				n.pos = decl.Pos()
				if decl.Recv == nil && decl.Name.Name == "init" {
					// A package may declare several; number them as the
					// runtime does.
					n.id = fmt.Sprintf("%s.init.%d", pkg.Path, inits)
					inits++
				}
				applyDirectives(n, decl.Doc)
				for _, r := range detRootRules {
					if !strings.HasSuffix(pkg.Path, r.pkgSuffix) {
						continue
					}
					if !strings.HasPrefix(obj.Name(), r.namePrefix) {
						continue
					}
					if r.exportedOnly && !obj.Exported() {
						continue
					}
					if decl.Recv != nil {
						continue // the rules name package-level entry points
					}
					n.detRoot = true
					if n.rootWhy == "" {
						n.rootWhy = r.why
					}
				}
				add(n, fileHot, decl.Body)
			}
			if len(values) > 0 {
				// One node per file, so line-level allows resolve against
				// the file that holds the initializer.
				name := filepath.Base(prog.Fset.Position(file.Pos()).Filename)
				add(newNode(pkg.Path+".init@"+name, pkg, file), fileHot, values...)
			}
		}
	}
	for _, ext := range rootMods {
		ifaceCalls = append(ifaceCalls, g.collectRefs(ext)...)
	}

	g.expandInterfaceCalls(ifaceCalls)

	g.order = make([]string, 0, len(g.nodes))
	//drslint:allow map-range -- collected ids are sorted before use
	for id := range g.nodes {
		g.order = append(g.order, id)
	}
	sort.Strings(g.order)
	return g
}

func newNode(id string, pkg *Package, file *ast.File) *funcNode {
	return &funcNode{id: id, pkg: pkg, file: file, callees: make(map[string]bool), allow: make(map[string]bool)}
}

// funcID renders a stable, fully qualified function identity that is
// identical whether the *types.Func came from source type-checking or
// from imported export data: "pkgpath.Func" or "pkgpath.(*Recv).Method".
func funcID(fn *types.Func) string {
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, pok := t.(*types.Pointer); pok {
			t = p.Elem()
			star = "*"
		}
		if named, nok := t.(*types.Named); nok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + ".(" + star + named.Obj().Name() + ")." + fn.Name()
		}
		return fn.FullName()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// applyDirectives reads the hotpath and allow directives from a
// function's doc comment. A doc-comment allow suppresses the named
// checks for the entire function body.
func applyDirectives(n *funcNode, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		if isHotpathTag(c.Text) {
			n.hotRoot = true
			n.rootWhy = HotpathDirective + " directive"
		}
		for _, check := range allowedChecks(c.Text) {
			n.allow[check] = true
		}
	}
}

// expandInterfaceCalls resolves recorded interface method calls by
// class-hierarchy analysis: an edge to M on every module-declared named
// type whose (pointer) method set implements the called interface.
func (g *Graph) expandInterfaceCalls(calls []ifaceCall) {
	if len(calls) == 0 {
		return
	}
	named := g.prog.namedTypes()
	for _, call := range calls {
		for _, n := range named {
			ptr := types.NewPointer(n)
			if !types.Implements(n, call.iface) && !types.Implements(ptr, call.iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, n.Obj().Pkg(), call.name)
			if m, ok := obj.(*types.Func); ok {
				call.callees[funcID(m)] = true
			}
		}
	}
}

// collectBody walks one function body (or one file's var
// initializers), resolving every referenced function into a call edge
// (a reference that is not a direct call — a method value handed to a
// scheduler, say — may still be invoked from here, so it counts as an
// edge) and recording hazard sites. Interface method references are
// returned for CHA expansion.
func collectBody(n *funcNode, body []ast.Node) []ifaceCall {
	info := n.pkg.Info
	var ifaceCalls []ifaceCall

	// freshSlices tracks locals bound to freshly allocated slices, for
	// the append-growth variant of hotpath-alloc.
	freshSlices := make(map[string]bool)

	visit := func(node ast.Node) bool {
		switch t := node.(type) {
		case *ast.Ident:
			fn, ok := info.Uses[t].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if ok && sig.Recv() != nil {
				if iface, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
					ifaceCalls = append(ifaceCalls, ifaceCall{callees: n.callees, iface: iface, name: fn.Name()})
					return true
				}
			}
			n.callees[funcID(fn)] = true
			n.noteAmbientFunc(t, fn)
		case *ast.GoStmt:
			if lit, ok := t.Call.Fun.(*ast.FuncLit); ok {
				n.noteGoroutineWrites(lit)
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[t.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					n.addHazard(t.For, CheckMapRange,
						"range over map %s iterates in randomized order; state fed from it diverges run to run (sort the keys, add a deterministic tie-break, or suppress with %q)",
						types.ExprString(t.X), strings.TrimSpace(AllowDirective)+" map-range -- <why it is order-insensitive>")
				}
			}
		case *ast.AssignStmt:
			if t.Tok == token.DEFINE {
				for i, lhs := range t.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(t.Rhs) {
						continue
					}
					if exprMakesFreshSlice(info, t.Rhs[i]) {
						freshSlices[id.Name] = true
					} else {
						delete(freshSlices, id.Name)
					}
				}
			}
		case *ast.GenDecl:
			if t.Tok == token.VAR {
				for _, spec := range t.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && vs.Type != nil && len(vs.Values) == 0 {
						if at, ok := vs.Type.(*ast.ArrayType); ok && at.Len == nil {
							for _, name := range vs.Names {
								freshSlices[name.Name] = true
							}
						}
					}
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[t]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					n.addHazard(t.Pos(), CheckHotPathAlloc,
						"map literal allocates on the per-cycle path; use reusable scratch arrays (cf. simt.Warp's uniqBuf/maskBuf) or suppress with %q", hotSuppressHint)
				}
			}
		case *ast.CallExpr:
			if id, ok := t.Fun.(*ast.Ident); ok {
				if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch b.Name() {
					case "make":
						if len(t.Args) > 0 {
							if tv, ok := info.Types[t.Args[0]]; ok {
								if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
									n.addHazard(t.Pos(), CheckHotPathAlloc,
										"make(map) allocates on the per-cycle path; use reusable scratch arrays (cf. simt.Warp's uniqBuf/maskBuf) or suppress with %q", hotSuppressHint)
								}
							}
						}
					case "append":
						if len(t.Args) > 0 {
							if base, ok := t.Args[0].(*ast.Ident); ok && freshSlices[base.Name] {
								n.addHazard(t.Pos(), CheckHotPathAlloc,
									"append grows %q, a slice freshly allocated in this function, on the per-cycle path; reuse a pooled buffer (x := s.buf[:0] ... s.buf = x) or suppress with %q",
									base.Name, hotSuppressHint)
							}
						}
					}
				}
			}
		}
		return true
	}
	for _, b := range body {
		ast.Inspect(b, visit)
	}
	return ifaceCalls
}

var hotSuppressHint = strings.TrimSpace(AllowDirective) + " hotpath-alloc -- <why this allocation is off the per-cycle path>"

// wallClockFuncs is the package-level API of time that reads the wall
// clock or schedules against it: Now/Since/Until read the clock
// directly, and the timer and ticker constructors deliver events whose
// order against the program's progress depends on the host's load.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
	"After": true, "AfterFunc": true,
}

// globalRandFuncs is the package-level API of math/rand (and v2) that
// draws from the shared, process-seeded source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// noteAmbientFunc records the hazards that live in the callee itself:
// wall-clock reads and the process-global RNG. These fire at the
// reference site (the standard library is not scanned), whether the
// function is called or merely captured.
func (n *funcNode) noteAmbientFunc(at *ast.Ident, fn *types.Func) {
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return // methods (e.g. Time.Sub) are not the ambient package API
	}
	switch pkg.Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			n.addHazard(at.Pos(), CheckWallClock,
				"time.%s reads or schedules against the wall clock; output must be a pure function of the inputs", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			n.addHazard(at.Pos(), CheckGlobalRand,
				"%s.%s uses the process-global RNG; use a seeded generator (internal/rng) instead", pkg.Name(), fn.Name())
		}
	}
}

// noteGoroutineWrites records a plain assignment, inside a go
// statement's function literal, to a variable declared outside that
// literal: an unsynchronized shared write, so a race. Index writes
// (results[i] = ...) pass, because the worker-per-element idiom is
// disjoint by construction, and so do the literal's own locals. A go
// literal nested inside is checked on its own.
func (n *funcNode) noteGoroutineWrites(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		switch t := node.(type) {
		case *ast.GoStmt:
			_, nested := t.Call.Fun.(*ast.FuncLit)
			return !nested
		case *ast.AssignStmt:
			if t.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range t.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := n.pkg.Info.Uses[id].(*types.Var)
				if !ok || (lit.Pos() <= v.Pos() && v.Pos() < lit.End()) {
					continue
				}
				n.addHazard(id.Pos(), CheckGoCapturedWrite,
					"goroutine assigns to captured variable %q; unsynchronized shared writes race (pass it as a parameter, write a disjoint element, or guard with sync)", id.Name)
			}
		}
		return true
	})
}

func (n *funcNode) addHazard(pos token.Pos, check, format string, args ...any) {
	n.hazards = append(n.hazards, hazard{pos: pos, check: check, msg: fmt.Sprintf(format, args...)})
}

// exprMakesFreshSlice reports whether an expression allocates a new
// slice: make([]T, ...) or a slice literal. Reslices of pooled storage
// (s.buf[:0]) and values read from fields or calls are not fresh —
// appending to them reuses capacity.
func exprMakesFreshSlice(info *types.Info, e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.CallExpr:
		id, ok := t.Fun.(*ast.Ident)
		if !ok || len(t.Args) == 0 {
			return false
		}
		if b, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "make" {
			return false
		}
		if tv, ok := info.Types[t.Args[0]]; ok {
			_, isSlice := tv.Type.Underlying().(*types.Slice)
			return isSlice
		}
	case *ast.CompositeLit:
		if tv, ok := info.Types[t]; ok {
			_, isSlice := tv.Type.Underlying().(*types.Slice)
			return isSlice
		}
	}
	return false
}

// reach is the BFS result for one fact: for every reached function,
// the edge it was discovered through, so findings can print a witness
// chain back to the root.
type reach map[string]string // node id -> parent id ("" for roots)

// propagate runs a deterministic multi-source BFS from the roots
// selected by isRoot.
func (g *Graph) propagate(isRoot func(*funcNode) bool) reach {
	r := make(reach)
	var frontier []string
	for _, id := range g.order {
		if isRoot(g.nodes[id]) {
			r[id] = ""
			frontier = append(frontier, id)
		}
	}
	for len(frontier) > 0 {
		var next []string
		for _, id := range frontier {
			n := g.nodes[id]
			callees := make([]string, 0, len(n.callees))
			//drslint:allow map-range -- collected ids are sorted before use
			for c := range n.callees {
				callees = append(callees, c)
			}
			sort.Strings(callees)
			for _, c := range callees {
				if _, seen := r[c]; seen {
					continue
				}
				if _, ok := g.nodes[c]; !ok {
					continue // callee outside the module
				}
				r[c] = id
				next = append(next, c)
			}
		}
		frontier = next
	}
	return r
}

// chain reconstructs the witness path from the root down to id.
func (r reach) chain(id string) []string {
	var rev []string
	for cur := id; ; {
		rev = append(rev, cur)
		parent, ok := r[cur]
		if !ok || parent == "" {
			break
		}
		cur = parent
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}
