// Package loadpkg is the shared package loader for the repo's vet-style
// static analyzers (tools/floateq, tools/pctvet). It parses and
// type-checks every package of a Go module from the filesystem using only
// go/parser + go/types — no external modules — delegating standard-library
// imports to the source importer.
//
// Both analyzer frontends load packages identically: each directory
// becomes one check unit holding the regular package merged with its
// in-package _test.go files, plus (separately) an external _test package
// when present. Units carry full types.Info (types, definitions, uses,
// selections), so analyzers can resolve callees and receiver types.
package loadpkg

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Unit is one type-checked compilation unit: a package's files (regular
// sources merged with in-package tests) or an external _test package.
type Unit struct {
	// ImportPath is the unit's import path; external test packages carry
	// the "_test" suffix.
	ImportPath string
	// Dir is the directory the unit's files live in.
	Dir string
	// Files are the parsed files, with comments.
	Files []*ast.File
	// Pkg is the checked package.
	Pkg *types.Package
	// Info holds the type-checking results for the unit's files.
	Info *types.Info
}

// Loader loads and type-checks the packages of one module. It implements
// types.Importer: module-internal packages are parsed and type-checked
// from the filesystem (recursively, caching results), everything else is
// delegated to the standard-library source importer.
type Loader struct {
	Fset *token.FileSet

	std     types.Importer
	pkgs    map[string]*types.Package
	modRoot string
	modPath string
}

// New locates the module enclosing root and returns a loader for it.
func New(root string) (*Loader, error) {
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		modRoot: modRoot,
		modPath: modPath,
	}, nil
}

// ModRoot returns the module root directory.
func (l *Loader) ModRoot() string { return l.modRoot }

// ModPath returns the module path from go.mod.
func (l *Loader) ModPath() string { return l.modPath }

// findModule locates the enclosing go.mod and reads the module path.
func findModule(start string) (root, path string, err error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", start)
		}
		dir = parent
	}
}

// dirOf maps a module-internal import path to its directory.
func (l *Loader) dirOf(path string) string {
	return filepath.Join(l.modRoot, strings.TrimPrefix(path, l.modPath))
}

// parseDir parses the non-test (tests false) or only the _test.go (tests
// true) files of a directory, with comments.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	files, err := l.parseDir(l.dirOf(path), false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// PackageDirs lists every directory under root holding Go files, skipping
// hidden directories, directories starting with "_", testdata, and nested
// modules — a directory with its own go.mod is another module, which
// `go vet ./...` leaves out too.
func PackageDirs(root string) []string {
	var dirs []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs
}

// newInfo returns a types.Info recording everything analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// CheckDir type-checks one directory into up to two units: the regular
// package merged with its in-package test files, and an external _test
// package when present. Directories without Go files yield no units.
func (l *Loader) CheckDir(dir string) ([]*Unit, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return nil, err
	}
	impPath := l.modPath
	if rel != "." {
		impPath = l.modPath + "/" + filepath.ToSlash(rel)
	}

	base, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	testFiles, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 && len(testFiles) == 0 {
		return nil, nil
	}

	// Split test files into in-package and external (package foo_test).
	baseName := ""
	if len(base) > 0 {
		baseName = base[0].Name.Name
	}
	var inPkg, external []*ast.File
	for _, f := range testFiles {
		if baseName != "" && f.Name.Name == baseName {
			inPkg = append(inPkg, f)
		} else {
			external = append(external, f)
		}
	}

	var units []*Unit
	check := func(path string, files []*ast.File) error {
		if len(files) == 0 {
			return nil
		}
		info := newInfo()
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.Fset, files, info)
		if err != nil {
			return err
		}
		units = append(units, &Unit{ImportPath: path, Dir: dir, Files: files, Pkg: pkg, Info: info})
		return nil
	}
	if err := check(impPath, append(append([]*ast.File{}, base...), inPkg...)); err != nil {
		return nil, err
	}
	if len(external) > 0 {
		// The external _test package must import the base package
		// augmented with its in-package test files — the export_test.go
		// pattern — and so must every module package it imports that
		// depends on the base: the go toolchain recompiles those for the
		// test. Check it against a cache holding the augmented package and
		// none of those dependents, then put the cache back.
		saved := l.pkgs
		l.pkgs = map[string]*types.Package{}
		memo := map[*types.Package]bool{}
		for path, pkg := range saved {
			if path != impPath && !dependsOn(pkg, impPath, memo) {
				l.pkgs[path] = pkg
			}
		}
		if len(units) > 0 {
			l.pkgs[impPath] = units[0].Pkg
		}
		err := check(impPath+"_test", external)
		l.pkgs = saved
		if err != nil {
			return nil, err
		}
	}
	return units, nil
}

// dependsOn reports whether pkg imports path, directly or through its
// imports; memo caches the answer per package.
func dependsOn(pkg *types.Package, path string, memo map[*types.Package]bool) bool {
	if dep, ok := memo[pkg]; ok {
		return dep
	}
	memo[pkg] = false // an import cycle cannot occur; this only stops revisits
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || dependsOn(imp, path, memo) {
			memo[pkg] = true
			return true
		}
	}
	return false
}

// Load type-checks every package directory of the module and returns the
// units in directory walk order.
func (l *Loader) Load() ([]*Unit, error) {
	var units []*Unit
	for _, dir := range PackageDirs(l.modRoot) {
		us, err := l.CheckDir(dir)
		if err != nil {
			rel, rerr := filepath.Rel(l.modRoot, dir)
			if rerr != nil {
				rel = dir
			}
			return nil, fmt.Errorf("%s: %w", filepath.ToSlash(rel), err)
		}
		units = append(units, us...)
	}
	return units, nil
}

// Waivers collects, per file and line, the text following a waiver marker
// comment like "// floateq:ok reason" or "// pctvet:ok reason". The
// returned reason is trimmed and may be empty when the marker carries no
// justification.
func Waivers(fset *token.FileSet, files []*ast.File, marker string) map[string]map[int]string {
	out := map[string]map[int]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, marker)
				if idx < 0 {
					continue
				}
				reason := strings.TrimSpace(c.Text[idx+len(marker):])
				p := fset.Position(c.Pos())
				if out[p.Filename] == nil {
					out[p.Filename] = map[int]string{}
				}
				out[p.Filename][p.Line] = reason
			}
		}
	}
	return out
}

// IsTestFile reports whether the node's source file is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
