package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRegistryMatchesBenchmarkJSON fails on any drift between the names the
// code reports and the names BENCHMARK.json promises.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		seen[n] = true
	}

	var gated []workloadDef
	for _, w := range workloads {
		check(w.Name, "")
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in code", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %q differs from BENCHMARK.json", i, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.Name, m.Unit)
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %q differs from BENCHMARK.json", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.Name, m.Unit)
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %q differs from BENCHMARK.json", m.Name)
		}
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end cell named", m.Name)
		}
	}
}

func readSet(t *testing.T, path string) *resultSet {
	t.Helper()
	s, err := loadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuickRun drives all six workloads, untraced and traced, in the quick
// mode and checks that every named metric is there for every workload it
// applies to.
func TestQuickRun(t *testing.T) {
	home := t.TempDir()
	var out bytes.Buffer
	if code := run([]string{"-quick", "-seconds", "0.25", "-home", home}, &out); code != 0 {
		t.Fatalf("untraced run exited %d:\n%s", code, out.String())
	}
	set := readSet(t, filepath.Join(home, "out", "set.json"))
	if len(set.Results) != len(workloads) {
		t.Fatalf("%d results", len(set.Results))
	}
	for _, r := range set.Results {
		if r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d", r.Workload, r.Attempted, r.Failed)
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Median <= 0 {
				t.Errorf("%s: end-to-end %s = %v (present %v)", r.Workload, m.Name, v.Median, ok)
			}
		}
	}
	for _, w := range []string{"small_mem", "sim_incast"} {
		if n := set.workload(w).Metrics["os.sockets_open"].Median; n != 0 {
			t.Errorf("%s holds %v sockets; the bypass workloads must hold none", w, n)
		}
	}

	out.Reset()
	if code := run([]string{"-quick", "-trace", "1", "-seconds", "0.25", "-home", home}, &out); code != 0 {
		t.Fatalf("traced run exited %d:\n%s", code, out.String())
	}
	set = readSet(t, filepath.Join(home, "out", "set-trace.json"))
	for _, r := range set.Results {
		for _, m := range perLayer {
			// mtp.Node's own counters do not exist where no Node runs.
			if r.Workload == "sim_incast" && strings.HasPrefix(m.Name, "mtp.") && strings.HasPrefix(m.Moves, "[wl]") {
				continue
			}
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", r.Workload, m.Name)
			}
		}
	}
	if fi, err := os.Stat(filepath.Join(home, "out", "spans.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("spans.jsonl: %v", err)
	}
}

// TestContractLine checks the last line a single-workload run prints.
func TestContractLine(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-quick", "-workload", "small_mem", "-seed", "3", "-seconds", "0.25", "-trace", "0", "-home", t.TempDir()}, &out)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || len(metrics) != len(endToEnd) {
		t.Errorf("%d keys, %d metrics", len(got), len(metrics))
	}
	for _, m := range endToEnd {
		if c := metrics[m.Name]; c.Unit != m.Unit || c.Value <= 0 {
			t.Errorf("%s = %+v", m.Name, c)
		}
	}
}

// TestNullEnvExactlyOnce: under its 2% drop the null core.Env must still
// deliver every message once, intact, and must have had to retransmit.
func TestNullEnvExactlyOnce(t *testing.T) {
	c := runCore(4*KiB, 16, 2000, 50, 1, nil)
	if c.faults != 0 || c.Msgs != 2000 || c.dst.MsgsDelivered != 2000 {
		t.Fatalf("faults %d, completed %d, delivered %d", c.faults, c.Msgs, c.dst.MsgsDelivered)
	}
	if c.src.PktsRetx == 0 {
		t.Fatal("nothing was retransmitted: the drop is not happening")
	}
	again := runCore(4*KiB, 16, 2000, 50, 1, nil)
	if again.src != c.src || again.dst != c.dst {
		t.Error("the null Env is not deterministic")
	}
}

func TestLedger(t *testing.T) {
	l := newLedger(7, 64, 2)
	buf, crc := newBody(64, 7, 1, 1)
	for seq := uint64(1); seq <= 3; seq++ {
		stamp(buf, crc, seq)
		if _, _, ok := l.deliver(buf); !ok {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	stamp(buf, crc, 2)
	l.deliver(buf) // duplicate below the window
	stamp(buf, crc, 6)
	l.deliver(buf) // out of order, inside the window: fine
	l.deliver(buf) // duplicate inside the window
	stamp(buf, crc, 4)
	l.deliver(buf) // late, but a first copy
	stamp(buf, crc, 500)
	l.deliver(buf) // far beyond the window
	buf[40] ^= 1
	l.deliver(buf) // corrupt
	if l.delivered.Load() != 5 || l.duplicate.Load() != 2 || l.skipped.Load() != 1 || l.corrupt.Load() != 1 {
		t.Errorf("delivered %d duplicate %d skipped %d corrupt %d",
			l.delivered.Load(), l.duplicate.Load(), l.skipped.Load(), l.corrupt.Load())
	}
}

// TestSelfTimes: root 0..100 with children 10..30 and 20..50 (overlapping, so
// they cover 40) and 60..70; the first child has its own child 12..18.
func TestSelfTimes(t *testing.T) {
	const base = 5 // as if four other spans preceded this rung's
	spans := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 30, Parent: base + 0},
		{Start: 20, End: 50, Parent: base + 0},
		{Start: 60, End: 70, Parent: base + 0},
		{Start: 12, End: 18, Parent: base + 1},
		{Start: 200, End: 0, Parent: -1}, // never finished
	}
	want := []int64{50, 14, 30, 10, 6, 0}
	for i, got := range selfTimes(spans, base) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
	}
	// The overlap 20..30 is in two children's self time: the tree sums to 110.
	if e := closureError(spans, base); e < 0.099 || e > 0.101 {
		t.Errorf("closure error %v, want 0.10", e)
	}
	nested := spans[:2]
	if e := closureError(nested, base); e != 0 {
		t.Errorf("properly nested tree has closure error %v", e)
	}
}

func TestUnits(t *testing.T) {
	if got := RateFromDelta(1500, 500*time.Millisecond); got != 3000 {
		t.Errorf("RateFromDelta = %v", got)
	}
	if got := BandwidthFromDelta(64*KiB, time.Millisecond); got != 65536000 {
		t.Errorf("BandwidthFromDelta = %v", got)
	}
	if got := PerSecond(250000).Interval(); got != 4000 {
		t.Errorf("Interval = %v", got)
	}
	for _, c := range []struct{ got, want string }{
		{(64 * KiB).String(), "64KB"},
		{(512 * Byte).String(), "512B"},
		{MiB.String(), "1MB"},
		{BytesPerSecond(174.2e6).String(), "174.2 MB/s"},
		{PerSecond(67000).String(), "67.0 k/s"},
		{Nanos(33400).String(), "33.40us"},
		{NanosPer(time.Second, 3).String(), "333.33ms"},
		{NanosOf(2 * time.Second).String(), "2.00s"},
		{Nanos(110).String(), "110.0ns"},
		{PerSecond(2.5e6).String(), "2.50 M/s"},
		{RateFromDelta(1, 0).String(), "0.0 /s"},
		{BandwidthFromDelta(1, 0).String(), "0.0 MB/s"},
		{NanosPer(time.Second, 0).String(), "0.0ns"},
		{PerSecond(0).Interval().String(), "0.0ns"},
		{ByteCount(1500).String(), "1500B"},
		{(4 * KiB).String(), "4KB"},
		{NanosOf(time.Millisecond).String(), "1.00ms"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, rtt float64) string {
		s := resultSet{Seed: 1, Seconds: 10}
		for _, w := range []string{"small_udp", "small_mem"} {
			r := wlResult{Workload: w, Metrics: map[string]value{
				"os.spin_us_p50": exact(11), "sim.events_mtp": exact(1861009),
			}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = exact(100)
			}
			r.Metrics["msgs_per_s"] = exact(rate)
			s.Results = append(s.Results, r)
		}
		s.Results[1].Metrics["os.spin_us_p50"] = exact(rtt)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "msgs_per_s" {
			bound = m.Bound
		}
	}
	a := write("a.json", 1000, 11)
	within := write("b.json", 1000*(1+0.8*bound), 11)
	beyond := write("c.json", 1000*(1-1.5*bound), 15)

	var out bytes.Buffer
	if code := run([]string{"-compare", a, within}, &out); code != 0 {
		t.Errorf("a difference inside the bound exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, beyond}, &out); code != 1 {
		t.Errorf("a difference beyond the bound exited %d", code)
	}
	if !strings.Contains(out.String(), "BEYOND BOUND (B worse)") || !strings.Contains(out.String(), "noisy host: set B") {
		t.Errorf("missing verdicts:\n%s", out.String())
	}
}
