package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExampleRuns runs main to completion (a failure exits through
// log.Fatal) and checks that the client reports all four messages sent.
func TestExampleRuns(t *testing.T) {
	const want = `client sent 4 messages`
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}
