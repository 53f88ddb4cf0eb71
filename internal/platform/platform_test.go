package platform

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseRunfileTable(t *testing.T) {
	pts, err := ParseRunfile([]byte(`
# loopback smoke points
size = 512
concurrency = 16
rto_ms = 20

procs, messages, size
2, 5000,         # inherits size=512
3, 3000, 2048
`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	p := pts[0]
	if p.Procs != 2 || p.Messages != 5000 || p.Size != 512 || p.Concurrency != 16 || p.RTOMillis != 20 {
		t.Fatalf("point 0 defaults wrong: %+v", p)
	}
	if p.Port != 7 {
		t.Fatalf("port fallback: %d", p.Port)
	}
	if pts[1].Size != 2048 || pts[1].Procs != 3 {
		t.Fatalf("point 1 wrong: %+v", pts[1])
	}
	if got := pts[1].label(); got != "p3_m3000_s2048" {
		t.Fatalf("derived label %q", got)
	}
}

// TestParseRunfileErrors: every rejection happens at parse time, with the
// offending line, so a bad point never reaches a worker process — where a
// zero or negative window used to block or panic the send loop and surface
// only as a heartbeat death.
func TestParseRunfileErrors(t *testing.T) {
	const hdr = "procs, messages, size"
	for name, tc := range map[string]struct{ in, want string }{
		"empty":           {"", "no rows"},
		"no points":       {"size = 512\n", "no rows"},
		"bad global":      {"bogus = 1\n\n" + hdr + "\n2, 10, 64\n", `line 1: global "bogus"`},
		"bad column":      {"procs, msgs\n2, 10\n", `line 2: unknown key "msgs"`},
		"bad int":         {hdr + "\nx, 10, 64\n", `line 2: procs: "x" is not a valid int`},
		"col count":       {hdr + "\n2, 10\n", "line 2: 2 columns, header has 3"},
		"late global":     {hdr + "\n2, 10, 64\n\nsize = 5\n", "line 4"},
		"json form":       {`{"points": [{"procs": 2}]}`, "no rows"},
		"one proc":        {hdr + "\n1, 10, 64\n", "line 2: point \"p1_m10_s64\": procs = 1"},
		"zero msgs":       {hdr + "\n2, 0, 64\n", "line 2: point \"p2_m0_s64\": messages = 0"},
		"no size":         {"procs, messages\n2, 10\n", "size = 0"},
		"negative size":   {hdr + "\n2, 10, -1\n", "size = -1"},
		"negative window": {"concurrency = -1\n\n" + hdr + "\n2, 10, 64\n", "line 4: point \"p2_m10_s64\": concurrency = -1"},
		"port range":      {"port = 70000\n\n" + hdr + "\n2, 10, 64\n", `line 1: port: "70000" is not a valid uint16`},
		"negative port":   {hdr + ", port\n2, 10, 64, -7\n", `line 2: port: "-7"`},
		"mss low":         {hdr + ", mss\n2, 10, 64, 63\n", "mss = 63"},
		"mss high":        {hdr + ", mss\n2, 10, 64, 60001\n", "mss = 60001"},
		"negative rto":    {"rto_ms = -5\n\n" + hdr + "\n2, 10, 64\n", "rto_ms = -5"},
	} {
		_, err := ParseRunfile([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseRunfile(%q) = %v, want an error containing %q", name, tc.in, err, tc.want)
		}
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	// Log buckets are ~4% wide; allow 10% slack.
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Millisecond}, {0.99, 990 * time.Millisecond}} {
		got := h.percentile(tc.q)
		if got < tc.want*9/10 || got > tc.want*11/10 {
			t.Errorf("p%.0f = %v, want ~%v", tc.q*100, got, tc.want)
		}
	}
	// Merge round-trips through the wire representation.
	var m hist
	m.merge(h.slice())
	m.merge(h.slice())
	if m.total != 2*h.total {
		t.Fatalf("merged total %d, want %d", m.total, 2*h.total)
	}
	if got, want := m.percentile(0.5), h.percentile(0.5); got != want {
		t.Fatalf("merged p50 %v, want %v", got, want)
	}
}

func TestHistBucketMonotone(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{0, time.Microsecond, 10 * time.Microsecond,
		time.Millisecond, 100 * time.Millisecond, 10 * time.Second, time.Hour} {
		b := histBucket(d)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucket(%v) = %d after %d", d, b, prev)
		}
		prev = b
	}
}

// TestRunLoopback drives the full launcher/worker state machine with
// goroutine workers over real TCP control and real UDP data sockets.
func TestRunLoopback(t *testing.T) {
	msgs := 400
	if testing.Short() {
		msgs = 100
	}
	points, err := ParseRunfile([]byte(fmt.Sprintf(`
name, procs, messages, size, concurrency
smoke2, 2, %d, 512, 16
smoke3, 3, %d, 2048, 8
`, msgs, msgs/2)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var logs []string
	results, err := Run(points, Options{
		Spawn:        GoSpawn(),
		PointTimeout: 2 * time.Minute,
		Log:          func(f string, a ...any) { logs = append(logs, f) },
	})
	if err != nil {
		t.Fatalf("run: %v (logs: %v)", err, logs)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	r := results[0]
	if r.Msgs != msgs || r.Lost != 0 {
		t.Fatalf("smoke2: msgs=%d lost=%d, want %d/0", r.Msgs, r.Lost, msgs)
	}
	if results[1].Msgs != 2*(msgs/2) {
		t.Fatalf("smoke3: msgs=%d, want %d (2 generators)", results[1].Msgs, 2*(msgs/2))
	}
	if r.MsgsPerSec <= 0 || r.P99 <= 0 || r.P99 < r.P50 {
		t.Fatalf("degenerate metrics: %+v", r)
	}

	// The bench line follows the `go test -bench` grammar: name without a
	// trailing -N, then alternating value/unit pairs.
	line := r.BenchLine()
	f := strings.Fields(line)
	if !strings.HasPrefix(f[0], "BenchmarkNetPoint/smoke2") || len(f) < 4 || len(f)%2 != 0 {
		t.Fatalf("bad bench line %q", line)
	}
	for _, unit := range []string{"msgs/s", "msgs/s-core", "p50-us", "p99-us", "allocs/msg"} {
		if !strings.Contains(line, unit) {
			t.Fatalf("bench line missing %q: %s", unit, line)
		}
	}
}

// TestPointKeys: every Point field has exactly one runfile key, its json
// name, and the aliases the parser once accepted are unknown keys now.
func TestPointKeys(t *testing.T) {
	var p Point
	cells, err := ParseCells([]string{"name=x", "procs=4", "messages=9", "size=64",
		"concurrency=3", "port=11", "cc=swift", "mss=900", "rto_ms=15"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(Row{Cells: cells}, &p); err != nil {
		t.Fatal(err)
	}
	want := Point{Name: "x", Procs: 4, Messages: 9, Size: 64, Concurrency: 3, Port: 11, CC: "swift", MSS: 900, RTOMillis: 15}
	if p != want || len(cells) != reflect.TypeOf(p).NumField() {
		t.Fatalf("bound %+v from %d cells, want %+v from one cell per field", p, len(cells), want)
	}
	if p.rto() != 15*time.Millisecond {
		t.Fatalf("rto conversion: %v", p.rto())
	}
	for _, alias := range []string{"hosts", "msgs", "count", "bytes", "window", "rto", "rtomillis"} {
		if err := Bind(Row{Cells: []Cell{{Key: alias, Value: "1"}}}, &p); err == nil {
			t.Errorf("alias %q still binds", alias)
		}
	}
}

func TestCtrlConnErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// A worker-reported failure, then garbage, then the wrong type.
		c.Write([]byte(`{"type":"error","index":3,"error":"boom"}` + "\n"))
		c.Write([]byte("not json\n"))
		c.Write([]byte(`{"type":"ready"}` + "\n"))
		c.(*net.TCPConn).CloseWrite()
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := newCtrlConn(c)
	defer cc.Close()
	if _, err := cc.recv(time.Second); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error message not surfaced: %v", err)
	}
	if _, err := cc.recv(time.Second); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := cc.expect("done", time.Second); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := cc.recv(50 * time.Millisecond); err == nil {
		t.Fatal("read past EOF/deadline succeeded")
	}
}

func TestBenchLineZeroMsgs(t *testing.T) {
	r := PointResult{Point: Point{Name: "empty"}}
	line := r.BenchLine()
	if !strings.Contains(line, "BenchmarkNetPoint/empty 0 0.0 ns/op") {
		t.Fatalf("zero-msg line malformed: %q", line)
	}
}

func TestHistEmptyAndTail(t *testing.T) {
	var h hist
	if h.percentile(0.5) != 0 {
		t.Fatal("empty histogram percentile nonzero")
	}
	h.add(time.Hour) // beyond the last bucket boundary: clamps, never panics
	if got := h.percentile(1.0); got <= 0 {
		t.Fatalf("tail percentile %v", got)
	}
}

// GoSpawn runs workers as goroutines of the test process — the same control
// protocol over real TCP, no fork. msgs/sec/core degenerates because every
// "process" shares one rusage domain, and a goroutine worker cannot be
// signaled (no chaos brownouts).
func GoSpawn() SpawnFunc {
	return func(index int, controlAddr string) (Proc, error) {
		p := &procGo{done: make(chan struct{})}
		go func() {
			p.err = RunWorker(controlAddr, index)
			close(p.done)
		}()
		return p, nil
	}
}

type procGo struct {
	done chan struct{}
	err  error
}

func (p *procGo) Wait() error { <-p.done; return p.err }
func (p *procGo) Kill()       {} // exits when its control conn closes

func TestGoSpawnKill(t *testing.T) {
	// Shrink the dial-retry budget so the unreachable address fails fast.
	old := dialControlBudget
	dialControlBudget = 200 * time.Millisecond
	defer func() { dialControlBudget = old }()
	p, err := GoSpawn()(1, "127.0.0.1:1") // unreachable control address
	if err != nil {
		t.Fatal(err)
	}
	p.Kill() // no-op by contract
	if err := p.Wait(); err == nil {
		t.Fatal("worker dialed a dead launcher successfully")
	}
}
