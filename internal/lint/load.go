package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// Path is the import path ("rtcadapt/internal/cc").
	Path string
	// Module is the module path the package was loaded under
	// ("rtcadapt"); Path relative to Module names the package's place
	// in the layer table.
	Module string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Sources holds the raw bytes of each parsed file, keyed by the
	// filename recorded in the FileSet. Suggested fixes splice these.
	Sources map[string][]byte
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks a tree of packages with no dependencies
// outside the standard library. Standard-library imports are satisfied by
// the stdlib source importer (works offline from GOROOT/src); tree-local
// imports are satisfied from the set being loaded, checked in dependency
// order.
type Loader struct {
	Fset *token.FileSet

	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader returns an empty loader with a fresh FileSet.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*Package),
	}
}

// Import satisfies types.Importer: tree-local packages win, everything else
// is assumed to be standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("lint: import cycle or unchecked package %q", path)
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadModule loads every package under root, mapping the root directory to
// importPrefix (the module path). Directories named testdata or vendor,
// directories whose name starts with "." or "_", and nested modules
// (directories below root holding their own go.mod, which `go build ./...`
// also skips) are skipped, as are _test.go files: analyzers enforce
// production-code invariants.
func (l *Loader) LoadModule(root, importPrefix string) ([]*Package, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := importPrefix
		if rel != "." {
			path = importPrefix + "/" + filepath.ToSlash(rel)
		}
		if err := l.parseDir(dir, path, importPrefix); err != nil {
			return nil, err
		}
		if _, ok := l.pkgs[path]; ok {
			paths = append(paths, path)
		}
	}
	if err := l.check(paths); err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.pkgs[p])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// packageDirs returns every directory under root that may hold a package
// of root's module, in lexical order.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test sources of dir into a pending Package under
// the given import path. Directories without Go files are skipped silently.
func (l *Loader) parseDir(dir, path, module string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	sources := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return fmt.Errorf("lint: read %s: %w", full, err)
		}
		f, err := parser.ParseFile(l.Fset, full, src, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %w", full, err)
		}
		files = append(files, f)
		sources[full] = src
	}
	if len(files) == 0 {
		return nil
	}
	l.pkgs[path] = &Package{Path: path, Module: module, Dir: dir, Files: files, Sources: sources}
	return nil
}

// check type-checks the named pending packages in dependency order.
func (l *Loader) check(paths []string) error {
	order, err := l.sortDeps(paths)
	if err != nil {
		return err
	}
	for _, path := range order {
		pkg := l.pkgs[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(path, l.Fset, pkg.Files, info)
		if err != nil {
			return fmt.Errorf("lint: typecheck %s: %w", path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
	}
	return nil
}

// sortDeps topologically sorts paths by their tree-local imports.
func (l *Loader) sortDeps(paths []string) ([]string, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case visiting:
			return fmt.Errorf("lint: import cycle through %q", path)
		case done:
			return nil
		}
		state[path] = visiting
		pkg := l.pkgs[path]
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				target, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := l.pkgs[target]; ok {
					if err := visit(target); err != nil {
						return err
					}
				}
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
