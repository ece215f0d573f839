package srcgraph

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// AllowDirective is the suppression comment prefix. A line comment
//
//	//drslint:allow map-range wallclock -- <why>
//
// suppresses the named checks on its own line and the line below it;
// in a function's doc comment it suppresses them for the whole
// function. The text after "--" is a free-form reason.
const AllowDirective = "//drslint:allow "

// HotpathDirective marks per-cycle code, the roots of the hot cone: in
// a function's doc comment it marks that function; anywhere else in a
// file it marks every function and package-level initializer there.
const HotpathDirective = "//drslint:hotpath"

// Both directives are line comments: a /* */ block that mentions one is
// inert, because its text starts with "/*".

// isHotpathTag reports whether one comment is the hotpath directive.
func isHotpathTag(text string) bool {
	return text == HotpathDirective || strings.HasPrefix(text, HotpathDirective+" ")
}

// allowedChecks returns the checks one comment's allow directive
// names, or nil when the comment is not an allow directive. It is the
// one parser of the grammar, for line-level and doc-comment allows.
func allowedChecks(text string) []string {
	rest, ok := strings.CutPrefix(text, AllowDirective)
	if !ok {
		return nil
	}
	rest, _, _ = strings.Cut(rest, "--")
	return strings.Fields(rest)
}

// lineAllowed reports whether an allow directive in f, on line or on
// the line above it, names check.
func lineAllowed(fset *token.FileSet, f *ast.File, line int, check string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if l := fset.Position(c.Slash).Line; l != line && l != line-1 {
				continue
			}
			if slices.Contains(allowedChecks(c.Text), check) {
				return true
			}
		}
	}
	return false
}

// fileTaggedHotpath reports whether the file carries a file-level
// hotpath tag: the directive in any comment that is not a function's
// doc comment (those mark only their function).
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
			if isHotpathTag(c.Text) {
				return true
			}
		}
	}
	return false
}
