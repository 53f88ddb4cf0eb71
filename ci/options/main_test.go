package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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
