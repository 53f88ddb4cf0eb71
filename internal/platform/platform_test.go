package platform

import (
	"net"
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
2, 5000, 0       # inherits size=512
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

func TestParseRunfileJSON(t *testing.T) {
	pts, err := ParseRunfile([]byte(`{
		"defaults": {"size": 256, "concurrency": 4},
		"points": [
			{"name": "tiny", "procs": 2, "messages": 100},
			{"procs": 4, "messages": 50, "size": 4096, "cc": "swift"}
		]
	}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(pts) != 2 || pts[0].Name != "tiny" || pts[0].Size != 256 || pts[1].CC != "swift" {
		t.Fatalf("json points wrong: %+v", pts)
	}
}

func TestParseRunfileErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"no points":  "size = 512\n",
		"bad key":    "bogus = 1\n\nprocs, messages, size\n2, 10, 64\n",
		"bad int":    "procs, messages, size\nx, 10, 64\n",
		"one proc":   "procs, messages, size\n1, 10, 64\n",
		"col count":  "procs, messages, size\n2, 10\n",
		"zero msgs":  "procs, messages, size\n2, 0, 64\n",
		"bad json":   "{not json",
		"json empty": `{"points": []}`,
	} {
		if _, err := ParseRunfile([]byte(in)); err == nil {
			t.Errorf("%s: parse accepted %q", name, in)
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
	points, err := ParseRunfile([]byte(`{
		"points": [
			{"name": "smoke2", "procs": 2, "messages": ` + itoa(msgs) + `, "size": 512, "concurrency": 16},
			{"name": "smoke3", "procs": 3, "messages": ` + itoa(msgs/2) + `, "size": 2048, "concurrency": 8}
		]
	}`))
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

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestSetFieldAliases(t *testing.T) {
	var p Point
	for k, v := range map[string]string{
		"name": "x", "hosts": "4", "count": "9", "bytes": "64",
		"window": "3", "port": "11", "cc": "swift", "mss": "900", "rto": "15",
	} {
		if err := setField(&p, k, v); err != nil {
			t.Fatalf("setField(%s): %v", k, err)
		}
	}
	if p.Procs != 4 || p.Messages != 9 || p.Size != 64 || p.Concurrency != 3 ||
		p.Port != 11 || p.CC != "swift" || p.MSS != 900 || p.RTOMillis != 15 || p.Name != "x" {
		t.Fatalf("aliases misparsed: %+v", p)
	}
	if p.rto() != 15*time.Millisecond {
		t.Fatalf("rto conversion: %v", p.rto())
	}
	if err := setField(&p, "port", "zz"); err == nil {
		t.Fatal("bad port accepted")
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
