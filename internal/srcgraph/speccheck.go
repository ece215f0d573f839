package srcgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// Spec-hash drift check.
//
// A job's content address is the SHA-256 of its canonical encoding
// (service.JobSpec.Canonical). The dedup registry, the artifact-store
// roadmap item and every client equate "same address" with "same job" —
// so a spec field that exists on the struct but is invisible to the
// encoder merges distinct jobs under one address, which is a silent
// wrong-result bug, not a performance bug. This check finds every
// struct with a Canonical() []byte encoder, works out what that encoder
// actually emits, and requires the two field sets to agree:
//
//   - an unexported field is invisible to encoding/json entirely;
//   - a field tagged `json:"-"` is deliberately excluded — never valid
//     on a content-addressed spec;
//   - a field without an explicit json tag has its wire name (and so
//     the hash preimage) coupled to the Go identifier, where a rename
//     silently changes every job's address;
//   - an `omitempty` option makes the encoding non-total (a zero field
//     vanishes), so two field sets can collide on one preimage;
//   - if Canonical marshals a projection struct instead of the spec
//     itself, every exported spec field must have a same-named
//     counterpart in the projection.
//
// Suppress a finding with `//drslint:allow spec-hash -- <why>` on the
// field's line (or the line above it).

// CheckSpecHashDrift cross-checks every Canonical content-address
// encoder in the program against the struct it addresses.
func CheckSpecHashDrift(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Recv == nil || decl.Name.Name != "Canonical" || decl.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok || !returnsBytes(fn) {
					continue
				}
				spec := receiverStruct(fn)
				if spec == nil {
					continue
				}
				out = append(out, checkCanonical(prog, pkg, decl, spec)...)
			}
		}
	}
	SortFindings(out)
	return out
}

// returnsBytes reports whether fn's single result is []byte — the
// shape of a content-address preimage encoder.
func returnsBytes(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	sl, ok := sig.Results().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

// receiverStruct returns the named struct type fn is a method of.
func receiverStruct(fn *types.Func) *types.Named {
	sig := fn.Type().(*types.Signature)
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// checkCanonical verifies one encoder: what struct does its
// json.Marshal call emit, and does that encoding cover the spec?
func checkCanonical(prog *Program, pkg *Package, decl *ast.FuncDecl, spec *types.Named) []Finding {
	specStruct := spec.Underlying().(*types.Struct)
	specName := spec.Obj().Name()

	encoded := findMarshalledStruct(pkg, decl)
	if encoded == nil {
		file, line := prog.Rel(decl.Pos())
		return suppressible(prog, pkg, decl.Pos(), Finding{
			File: file, Line: line, Check: CheckSpecHash,
			Msg: fmt.Sprintf("%s.Canonical has no statically visible json.Marshal of a struct; the spec-hash drift check cannot verify that every %s field reaches the content address (restructure the encoder or suppress with %q)",
				specName, specName, allowHint(CheckSpecHash)),
		})
	}

	var out []Finding
	// Field-level rules on the struct that is actually encoded.
	encStruct := encoded.Underlying().(*types.Struct)
	encNames := make(map[string]token.Pos) // wire name -> field pos
	for i := 0; i < encStruct.NumFields(); i++ {
		f := encStruct.Field(i)
		tag, hasTag := reflect.StructTag(encStruct.Tag(i)).Lookup("json")
		name, opts, _ := strings.Cut(tag, ",")
		file, line := prog.Rel(f.Pos())
		add := func(format string, args ...any) {
			out = append(out, suppressible(prog, pkg, f.Pos(), Finding{
				File: file, Line: line, Check: CheckSpecHash,
				Msg: fmt.Sprintf(format, args...),
			})...)
		}
		if !f.Exported() {
			if encoded == spec {
				add("field %s.%s is unexported, so it is invisible to the canonical encoder: state it carries is not part of the job's content address and distinct jobs can merge under one hash (export and tag it, or suppress with %q)",
					specName, f.Name(), allowHint(CheckSpecHash))
			}
			continue
		}
		if hasTag && name == "-" && tag != "-," {
			add("field %s.%s is tagged json:\"-\" and never reaches the canonical encoding; a spec field outside the content address merges distinct jobs under one hash (encode it or suppress with %q)",
				encoded.Obj().Name(), f.Name(), allowHint(CheckSpecHash))
			continue
		}
		if !hasTag {
			add("field %s.%s has no explicit json tag; its wire name — part of every job's hash preimage — is coupled to the Go identifier, and a rename silently re-addresses every job (pin it with a json tag or suppress with %q)",
				encoded.Obj().Name(), f.Name(), allowHint(CheckSpecHash))
		}
		for _, opt := range strings.Split(opts, ",") {
			if opt == "omitempty" {
				add("field %s.%s is tagged omitempty, making the canonical encoding non-total: a zero value vanishes from the preimage and two different field sets can share one content address (drop omitempty or suppress with %q)",
					encoded.Obj().Name(), f.Name(), allowHint(CheckSpecHash))
			}
		}
		wire := f.Name()
		if hasTag && name != "" && name != "-" {
			wire = name
		}
		if prev, dup := encNames[wire]; dup {
			_, prevLine := prog.Rel(prev)
			add("wire name %q is emitted by two fields of %s (first at line %d); the canonical encoding must map each field to a distinct key",
				wire, encoded.Obj().Name(), prevLine)
		} else {
			encNames[wire] = f.Pos()
		}
	}

	// Projection coverage: every exported spec field must survive into
	// the encoded struct.
	if encoded != spec {
		encFields := make(map[string]bool, encStruct.NumFields())
		for i := 0; i < encStruct.NumFields(); i++ {
			encFields[encStruct.Field(i).Name()] = true
		}
		for i := 0; i < specStruct.NumFields(); i++ {
			f := specStruct.Field(i)
			if !f.Exported() || encFields[f.Name()] {
				continue
			}
			file, line := prog.Rel(f.Pos())
			out = append(out, suppressible(prog, pkg, f.Pos(), Finding{
				File: file, Line: line, Check: CheckSpecHash,
				Msg: fmt.Sprintf("field %s.%s is absent from the %s projection that Canonical encodes; the field never reaches the content address and distinct jobs can merge under one hash (add it to the projection or suppress with %q)",
					specName, f.Name(), encoded.Obj().Name(), allowHint(CheckSpecHash)),
			})...)
		}
	}
	return out
}

// findMarshalledStruct locates the first json.Marshal call in the
// encoder body and resolves the named struct type it encodes.
func findMarshalledStruct(pkg *Package, decl *ast.FuncDecl) *types.Named {
	var found *types.Named
	ast.Inspect(decl.Body, func(node ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" || fn.Name() != "Marshal" {
			return true
		}
		t := pkg.Info.Types[call.Args[0]].Type
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				found = named
			}
		}
		return true
	})
	return found
}

// allowHint renders the suppression comment for a check.
func allowHint(check string) string {
	return strings.TrimSpace(AllowDirective) + " " + check + " -- <why>"
}

// suppressible applies line-level //drslint:allow suppressions to a
// finding anchored at pos; it returns the finding in a slice, or an
// empty slice when suppressed.
func suppressible(prog *Program, pkg *Package, pos token.Pos, f Finding) []Finding {
	if file := pkg.FileAt(pos); file != nil && lineAllowed(prog.Fset, file, f.Line, f.Check) {
		return nil
	}
	return []Finding{f}
}

// FileAt returns the parsed file containing pos, or nil.
func (p *Package) FileAt(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
