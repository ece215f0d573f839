package srcgraph

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one type-checked package of the analyzed module.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Files holds the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the per-file type facts (uses, defs, selections,
	// expression types) the analyses resolve identifiers through.
	Info *types.Info
}

// Program is a loaded module: every package matched by the load
// patterns, parsed and type-checked, plus the shared position table.
type Program struct {
	// Fset maps positions for every parsed file.
	Fset *token.FileSet
	// Dir is the absolute module root; findings report paths relative
	// to it.
	Dir string
	// Pkgs lists the module's packages sorted by import path.
	Pkgs []*Package
}

// Rel renders a position as a module-relative "path:line" pair.
func (p *Program) Rel(pos token.Pos) (file string, line int) {
	position := p.Fset.Position(pos)
	file = position.Filename
	if r, err := filepath.Rel(p.Dir, file); err == nil && !strings.HasPrefix(r, "..") {
		file = filepath.ToSlash(r)
	}
	return file, position.Line
}

// listedPkg is one row of the `go list` output the loader consumes.
type listedPkg struct {
	path     string
	export   string // compiled export data in the build cache
	dir      string
	inModule bool
	goFiles  []string
}

// Load type-checks the module rooted at dir. Patterns follow the go
// command ("./...", "./internal/..."); they default to "./...". Only
// packages belonging to the module itself are parsed from source, in
// `go list -deps` order (every package after its imports), and each
// is checked against the source-checked module packages it imports.
// So one module type is one *types.Named everywhere, and
// types.Implements sees that (*kernels.Aila) implements simt.Kernel.
// Dependencies outside the module (the standard library; the module
// has no others) are imported from the compiled export data `go list
// -export` places in the build cache, so loading is fully offline and
// needs nothing beyond the toolchain.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("srcgraph: resolve %s: %w", dir, err)
	}
	pkgs, err := goList(abs, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.export != "" {
			exports[p.path] = p.export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("srcgraph: no export data for %q", path)
		}
		return os.Open(f)
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		checked: make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "gc", lookup),
	}
	prog := &Program{Fset: fset, Dir: abs}

	// go list -deps lists every package after its imports, so each
	// module package's module imports are checked before it.
	for _, lp := range pkgs {
		if !lp.inModule {
			continue
		}
		files := make([]*ast.File, 0, len(lp.goFiles))
		for _, name := range lp.goFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("srcgraph: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Types:      make(map[ast.Expr]types.TypeAndValue),
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(lp.path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("srcgraph: type-check %s: %w", lp.path, err)
		}
		imp.checked[lp.path] = tp
		prog.Pkgs = append(prog.Pkgs, &Package{
			Path:  lp.path,
			Dir:   lp.dir,
			Files: files,
			Types: tp,
			Info:  info,
		})
	}
	slices.SortFunc(prog.Pkgs, func(a, b *Package) int { return strings.Compare(a.Path, b.Path) })
	return prog, nil
}

// moduleImporter resolves a module import to its source-checked
// package and anything else through export data.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if tp, ok := m.checked[path]; ok {
		return tp, nil
	}
	return m.std.Import(path)
}

// goList invokes `go list -deps -export` in dir and parses the
// tab-separated rows. -export compiles (or reuses from the build
// cache) each dependency's export data, which is what lets the loader
// type-check against the standard library without golang.org/x/tools.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	format := "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{if .Module}}{{.Module.Path}}{{end}}\t{{join .GoFiles \",\"}}"
	args := append([]string{"list", "-deps", "-export", "-f", format}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("srcgraph: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []*listedPkg
	for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
		cols := strings.Split(line, "\t")
		if len(cols) != 5 {
			return nil, fmt.Errorf("srcgraph: unexpected go list row %q", line)
		}
		p := &listedPkg{
			path:   cols[0],
			export: cols[1],
			dir:    cols[2],
			// Module packages are parsed from source; everything else
			// (the standard library) comes from export data. The dir
			// check keeps a dependency module, should one ever appear,
			// on the export-data side.
			inModule: cols[3] != "" && strings.HasPrefix(cols[2], dir),
		}
		if cols[4] != "" {
			p.goFiles = strings.Split(cols[4], ",")
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
