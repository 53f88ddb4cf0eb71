// Command options prints two tables about what a Go tree offers its callers.
// The first counts settable fields: per package directory, the exported
// fields of every exported struct type whose name ends in Config, Options or
// Spec, then the total (test files, testdata and dot-directories skipped;
// build constraints not evaluated, so every non-test .go file counts). The
// second lists the dead names: the exported functions and methods of the
// internal/ packages that nothing calls (see deadNames), then their number.
// Each dir must be a module root; modules nested under it are scanned too.
//
//	go run ./ci/options [dir ...]    (or: make options; default dir ".")
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	counts := map[string]int{}
	for _, root := range roots {
		if err := count(root, counts); err != nil {
			fmt.Fprintln(os.Stderr, "options:", err)
			os.Exit(1)
		}
	}
	report(os.Stdout, counts)
	for _, root := range roots {
		dead, err := deadNames(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "options:", err)
			os.Exit(1)
		}
		fmt.Println()
		reportDead(os.Stdout, dead)
	}
}

// count adds to counts, keyed by directory, the option fields of the non-test
// Go files under root.
func count(root string, counts map[string]int) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if n := fileOptions(f); n > 0 {
			counts[filepath.Dir(path)] += n
		}
		return nil
	})
}

// fileOptions is the number of exported fields of f's exported option structs.
func fileOptions(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.TYPE {
			continue
		}
		for _, spec := range gen.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() || !isOptionType(ts.Name.Name) {
				continue
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 {
					if embeddedExported(field.Type) {
						n++
					}
					continue
				}
				for _, id := range field.Names {
					if id.IsExported() {
						n++
					}
				}
			}
		}
	}
	return n
}

func isOptionType(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Spec"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// embeddedExported reports whether an embedded field's name (its type's name)
// is exported.
func embeddedExported(t ast.Expr) bool {
	switch t := t.(type) {
	case *ast.StarExpr:
		return embeddedExported(t.X)
	case *ast.SelectorExpr:
		return t.Sel.IsExported()
	case *ast.Ident:
		return t.IsExported()
	}
	return false
}

func report(w io.Writer, counts map[string]int) {
	dirs := make([]string, 0, len(counts))
	total := 0
	for dir, n := range counts {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		fmt.Fprintf(w, "%-26s %4d\n", dir, counts[dir])
	}
	fmt.Fprintf(w, "%-26s %4d\n", "total", total)
}
