package scenario_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtp/internal/exp"
	"mtp/internal/platform"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output (make golden)")

// TestGolden pins Result.String() — spec line, delivered/completed counts and
// the engine's event count — for the seeds regress_test.go names, plus one
// seed per rival so every rival's open-loop wiring is covered. The event count
// makes this an event-for-event pin: a changed connection or stream ID, an
// extra timer or a reordered callback all move it. Each case is a one-row
// runfile, testdata/<name>.run, that `mtpexp -run` prints identically.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.run"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/*.run (%v)", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".run")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := platform.ParseRows(data)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			jobs, err := exp.Load(rows)
			if err != nil || len(jobs) != 1 {
				t.Fatalf("%s: %d rows, %v; want one scenario row", file, len(jobs), err)
			}
			res := jobs[0].Run(1)
			if res.Failed {
				t.Errorf("%s violated an invariant", file)
			}
			got := res.Text + "\n"
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from its golden:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
