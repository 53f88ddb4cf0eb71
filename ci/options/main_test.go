package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestFileOptions(t *testing.T) {
	const src = `package p

type RunConfig struct {
	A, B int
	c    int
	Embedded
	*unexported
}

type Options struct{ X bool }

type hiddenConfig struct{ Y int } // unexported type
type Plain struct{ Z int }        // not an option type
type SpecList []int               // not a struct
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fileOptions(f); got != 4 {
		t.Fatalf("fileOptions = %d, want 4 (A, B, Embedded, X)", got)
	}
}

func TestCountSkipsTestsAndTestdata(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a/a.go", "package a\ntype Config struct{ A, B int }\n")
	write("a/a_test.go", "package a\ntype TestConfig struct{ C int }\n")
	write("a/testdata/x.go", "package x\ntype Config struct{ D int }\n")
	write(".hidden/h.go", "package h\ntype Config struct{ E int }\n")
	write("b/b.go", "package b\ntype NetSpec struct{ F int }\n")

	counts := map[string]int{}
	if err := count(root, counts); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, counts)
	want := filepath.Join(root, "a") + " " // padded by the report's width
	if counts[filepath.Join(root, "a")] != 2 || counts[filepath.Join(root, "b")] != 1 || len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if !bytes.Contains(out.Bytes(), []byte(want)) || !bytes.HasSuffix(out.Bytes(), []byte("    3\n")) {
		t.Fatalf("report:\n%s", out.String())
	}
}

// TestRepositoryHasNoDeadNames holds the repository to the rule deadNames
// checks: every exported function and method in internal/ has a caller.
func TestRepositoryHasNoDeadNames(t *testing.T) {
	dead, err := deadNames(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		var out bytes.Buffer
		reportDead(&out, dead)
		t.Fatalf("exported names with no caller (delete them, or move test-only ones into _test.go files):\n%s", out.String())
	}
}

func TestDeadNames(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.22\n")
	write("internal/a/a.go", `package a

type T struct{}

func (T) Hidden() int { return 1 } // reached only through b's unexported interface
func (T) Dropped()    {}           // planted: no caller

func Planted()   {} // planted: no caller
func Used()      {} // called by b
func OtherTest() {} // called only by b's tests
func OwnTest()   {} // called only by a's in-package tests
func OwnXTest()  {} // called only by a's external tests

type hidden struct{}

func (hidden) Unexported() {} // a method of an unexported type is not listed
`)
	write("internal/a/a_test.go", "package a\n\nfunc init() { OwnTest() }\n")
	write("internal/a/x_test.go", "package a_test\n\nimport \"m/internal/a\"\n\nfunc init() { a.OwnXTest() }\n")
	write("internal/b/b.go", `package b

import "m/internal/a"

type hider interface{ Hidden() int }

func get(h hider) int { return h.Hidden() }

func run() int {
	a.Used()
	return get(a.T{})
}

var _ = run
`)
	write("internal/b/b_test.go", "package b\n\nimport \"m/internal/a\"\n\nfunc init() { a.OtherTest() }\n")

	dead, err := deadNames(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a OwnTest", "internal/a OwnXTest", "internal/a Planted", "internal/a T.Dropped"}
	if !slices.Equal(dead, want) {
		t.Fatalf("deadNames = %q, want %q", dead, want)
	}
}
