package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// deadNames lists, sorted, the exported functions, and exported methods of
// exported types, in the internal/ packages of the module at root and of the
// modules nested under it, that have no caller. A name has a caller when
// non-test code of any package uses it, when a test file of another package
// uses it, or, for a method, when its type or a pointer to it implements an
// interface with a method of that name: a named interface of any module
// package, unexported ones included, an exported one of a std package the
// module imports, or error. Packages are type-checked from source with build
// constraints honoured, std from the toolchain's export data. Names are
// matched by package path and qualified name, so a package and its test
// variant resolve to the same name. Each entry reads "dir Name" or
// "dir Type.Method", dir relative to its module.
func deadNames(root string) ([]string, error) {
	s := &scan{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*build.Package{},
		rel:    map[string]string{},
		loaded: map[string]*types.Package{},
		used:   map[string]bool{},
	}
	if err := s.walk(root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := s.load(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		if err := s.loadTests(path); err != nil {
			return nil, err
		}
	}
	s.markImplemented()
	var dead []string
	for _, path := range paths {
		if strings.HasPrefix(s.rel[path], "internal/") {
			dead = append(dead, s.unused(path)...)
		}
	}
	return dead, nil
}

type scan struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*build.Package // module packages by import path
	rel    map[string]string         // their directories, relative to the module
	loaded map[string]*types.Package // their non-test type-checks
	ifaces []*types.Interface        // the module's named interfaces
	named  []*types.TypeName         // the module's package-level types
	used   map[string]bool           // FullNames of the funcs that have a caller
}

// walk finds every module under root and every package of each.
func (s *scan) walk(root string) error {
	type module struct{ path, dir string }
	var mods []module
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if gomod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(gomod), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					mods = append(mods, module{strings.Trim(f[1], `"`), dir})
				}
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) || len(mods) == 0 {
			return nil
		}
		if err != nil || len(bp.GoFiles) == 0 {
			return err
		}
		// The innermost module: the walk enters a nested module after the
		// one that holds it.
		m := mods[0]
		for _, mod := range mods {
			if dir == mod.dir || strings.HasPrefix(dir, mod.dir+string(filepath.Separator)) {
				m = mod
			}
		}
		rel, _ := filepath.Rel(m.dir, dir) // cannot fail: dir is under m.dir
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		s.pkgs[path], s.rel[path] = bp, filepath.ToSlash(rel)
		return nil
	})
}

// importer resolves module packages from source (self in place of the
// package of its path, when set) and std from export data.
func (s *scan) importer(self *types.Package) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if self != nil && path == self.Path() {
			return self, nil
		}
		if s.pkgs[path] != nil {
			return s.load(path)
		}
		return s.std.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks the non-test files of the package at path, once, and
// records its uses, its interfaces and its types.
func (s *scan) load(path string) (*types.Package, error) {
	if pkg, ok := s.loaded[path]; ok {
		return pkg, nil
	}
	pkg, info, err := s.check(path, s.pkgs[path].GoFiles, nil, true)
	if err != nil {
		return nil, err
	}
	s.loaded[path] = pkg
	for _, obj := range info.Uses {
		s.use(obj, "")
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			s.named = append(s.named, tn)
		}
	}
	return pkg, nil
}

// loadTests type-checks the package at path with its in-package test files,
// then its external test package against that variant, and records what
// their test files use of other packages. Type errors are tolerated here: an
// external test that imports a package which imports path sees two versions
// of path's types, where the go tool would rebuild the importer.
func (s *scan) loadTests(path string) error {
	bp, self := s.pkgs[path], s.loaded[path]
	if len(bp.TestGoFiles) > 0 {
		files := append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
		variant, info, err := s.check(path, files, nil, false)
		if err != nil {
			return err
		}
		s.testUses(path, info)
		self = variant
	}
	if len(bp.XTestGoFiles) > 0 {
		_, info, err := s.check(path+"_test", bp.XTestGoFiles, self, false)
		if err != nil {
			return err
		}
		s.testUses(path, info)
	}
	return nil
}

func (s *scan) testUses(path string, info *types.Info) {
	for id, obj := range info.Uses {
		if strings.HasSuffix(s.fset.Position(id.Pos()).Filename, "_test.go") {
			s.use(obj, path)
		}
	}
}

// check parses files of the package at path (an external test's path ends in
// _test) and type-checks them as package path; strict makes a type error
// fatal.
func (s *scan) check(path string, files []string, self *types.Package, strict bool) (*types.Package, *types.Info, error) {
	dir := s.pkgs[strings.TrimSuffix(path, "_test")].Dir
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		parsed = append(parsed, f)
	}
	var first error
	conf := types.Config{Importer: s.importer(self), Error: func(err error) {
		if first == nil {
			first = err
		}
	}}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, _ := conf.Check(path, s.fset, parsed, info)
	if strict && first != nil {
		return nil, nil, first
	}
	return pkg, info, nil
}

// use records that obj, if a func, has a caller, unless the use comes from
// the tests of obj's own package (own: the package whose tests are read).
func (s *scan) use(obj types.Object, own string) {
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() != own {
		s.used[fn.Origin().FullName()] = true
	}
}

// markImplemented marks every method through which a module type, or a
// pointer to it, implements a module interface, an exported interface of a
// std package the module imports, or error.
func (s *scan) markImplemented() {
	ifaces := append(s.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range s.loaded {
		for _, imp := range pkg.Imports() {
			if s.pkgs[imp.Path()] != nil {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	for _, tn := range s.named {
		if types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if fn, ok := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					s.used[fn.Origin().FullName()] = true
				}
			}
		}
	}
}

// unused lists the package's exported funcs, and exported methods of its
// exported types, that have no caller.
func (s *scan) unused(path string) []string {
	var dead []string
	note := func(fn *types.Func, prefix string) {
		if fn.Exported() && !s.used[fn.FullName()] {
			dead = append(dead, s.rel[path]+" "+prefix+fn.Name())
		}
	}
	scope := s.loaded[path].Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			note(obj, "")
		case *types.TypeName:
			if n, ok := obj.Type().(*types.Named); ok && obj.Exported() && !obj.IsAlias() {
				for i := 0; i < n.NumMethods(); i++ {
					note(n.Method(i), name+".")
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

func reportDead(w io.Writer, dead []string) {
	for _, d := range dead {
		dir, name, _ := strings.Cut(d, " ")
		fmt.Fprintf(w, "%-26s %s\n", dir, name)
	}
	fmt.Fprintf(w, "%-26s %4d\n", "dead names", len(dead))
}
