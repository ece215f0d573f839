package srcgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unreachable-code check.
//
// A production function that no binary can call is code a reader has
// to audit for nothing, and it comes back with every change unless a
// check keeps it out. The roots are listed in the package doc; an
// allowed function is a root too, so a checker that only tests call
// keeps its callees.

// Census counts what the unreachable check saw.
type Census struct {
	// Roots counts the functions propagation starts from.
	Roots int `json:"roots"`
	// Reached counts the functions the roots reach, roots included.
	Reached int `json:"reached"`
	// Allowed counts the functions kept by an allow directive.
	Allowed int `json:"allowed"`
	// Exempt counts the unreached functions of test-support packages.
	Exempt int `json:"exempt"`
}

// stdlibCallbacks are the named standard-library interfaces whose
// methods the standard library calls on module values: fmt prints a
// Stringer, encoding/json calls a Marshaler, net/http serves a Handler,
// sort orders an Interface and go/types imports through an Importer.
var stdlibCallbacks = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"net/http", "Handler"},
	{"sort", "Interface"},
	{"go/types", "Importer"},
}

// Unreachable reports every function no root reaches, outside the
// test-support packages, and counts the check's roots.
func (g *Graph) Unreachable() ([]Finding, Census) {
	roots := g.liveRoots()
	reached := g.propagate(func(n *funcNode) bool { return roots[n.id] })
	c := Census{Roots: len(roots), Reached: len(reached)}
	var out []Finding
	for _, id := range g.order {
		n := g.nodes[id]
		if n.allow[CheckUnreachable] {
			c.Allowed++
		}
		if _, ok := reached[id]; ok {
			continue
		}
		if slices.ContainsFunc(testSupportPkgs, func(suffix string) bool { return strings.HasSuffix(n.pkg.Path, suffix) }) {
			c.Exempt++
			continue
		}
		file, line := g.prog.Rel(n.pos)
		out = append(out, Finding{File: file, Line: line, Check: CheckUnreachable, Func: id,
			Msg: "no binary, initializer or root module reaches " + id + "; delete it, or keep it with " +
				strings.TrimSpace(AllowDirective) + " " + CheckUnreachable + " -- <why tests need it>"})
	}
	return out, c
}

// liveRoots returns the ids of the unreachable check's roots.
func (g *Graph) liveRoots() map[string]bool {
	callbacks := make(map[string]bool)
	g.expandInterfaceCalls(g.callbackCalls(callbacks))
	roots := make(map[string]bool)
	for _, id := range g.order {
		n := g.nodes[id]
		main := n.pkg.Types.Name() == "main" && id == n.pkg.Path+".main"
		init := strings.HasPrefix(id, n.pkg.Path+".init.") || strings.HasPrefix(id, n.pkg.Path+".init@")
		if main || init || callbacks[id] || g.extRefs[id] || n.allow[CheckUnreachable] {
			roots[id] = true
		}
	}
	return roots
}

// callbackCalls returns, as interface calls into callees, every
// method of the interfaces through which the standard library calls
// module values: error, Unwrap() error and stdlibCallbacks.
func (g *Graph) callbackCalls(callees map[string]bool) []ifaceCall {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))}, nil)
	ifaces := []*types.Interface{errType.Underlying().(*types.Interface), unwrap.Complete()}
	// The interfaces are looked up among the program's own imports: the
	// same package imported through another importer is another
	// *types.Package, and a method whose signature names its types
	// would not implement the copy.
	imported := g.prog.importedPkgs()
	for _, cb := range stdlibCallbacks {
		if iface := lookupIface(imported, cb.pkg, cb.name); iface != nil {
			ifaces = append(ifaces, iface)
		}
	}
	var calls []ifaceCall
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			calls = append(calls, ifaceCall{callees: callees, iface: iface, name: iface.Method(i).Name()})
		}
	}
	return calls
}

// importedPkgs maps the import path of every package the program's
// packages import, directly or not, to the package as they see it.
func (p *Program) importedPkgs() map[string]*types.Package {
	seen := make(map[string]*types.Package)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp.Path()] != nil {
			return
		}
		seen[tp.Path()] = tp
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range p.Pkgs {
		visit(pkg.Types)
	}
	return seen
}

// lookupIface returns the interface path.name as the program's
// packages see it, or nil when they do not import path.
func lookupIface(imported map[string]*types.Package, path, name string) *types.Interface {
	pkg := imported[path]
	if pkg == nil {
		return nil
	}
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// namedTypes lists the program's package-level named types, in package
// and name order.
func (p *Program) namedTypes() []*types.Named {
	var named []*types.Named
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	return named
}

// collectRefs records, as extRefs, every function of g's program that
// a root module's sources reference. A call through one of the
// program's interfaces is returned for the class-hierarchy expansion,
// with the interface resolved to the program's own type: the root
// module sees the program through export data, so its *types.Named are
// other objects.
func (g *Graph) collectRefs(ext *Program) []ifaceCall {
	imported := g.prog.importedPkgs()
	var calls []ifaceCall
	for _, pkg := range ext.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(node ast.Node) bool {
				id, ok := node.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				sig := fn.Type().(*types.Signature)
				if sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
					g.extRefs[funcID(fn)] = true
					return true
				}
				// The universe's error has no package; its Error is a
				// standard-library callback root anyway.
				named, ok := sig.Recv().Type().(*types.Named)
				if !ok || named.Obj().Pkg() == nil {
					return true
				}
				if iface := lookupIface(imported, named.Obj().Pkg().Path(), named.Obj().Name()); iface != nil {
					calls = append(calls, ifaceCall{callees: g.extRefs, iface: iface, name: fn.Name()})
				}
				return true
			})
		}
	}
	return calls
}
