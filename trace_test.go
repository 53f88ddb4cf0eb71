package mtp

import (
	"strings"
	"testing"
	"time"

	"mtp/internal/core"
)

// ringMsgs feeds r one event per message id and returns the ids the ring
// retained, oldest first, as its dump prints them.
func ringMsgs(t *testing.T, r *traceRing) []string {
	t.Helper()
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(r.dump()), "\n")[1:] {
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "msg=") {
				ids = append(ids, strings.TrimPrefix(f, "msg="))
			}
		}
	}
	return ids
}

func TestRingRetainsNewest(t *testing.T) {
	r := newTraceRing(4)
	for i := 0; i < 10; i++ {
		r.Observe(nil, &core.Event{At: time.Duration(i), Kind: core.KindSendData, Msg: uint64(i)})
	}
	if r.total != 10 || len(r.buf) != 4 {
		t.Fatalf("total=%d len=%d", r.total, len(r.buf))
	}
	if got := strings.Join(ringMsgs(t, r), " "); got != "6 7 8 9" {
		t.Fatalf("retained msgs %q, want the newest four oldest first", got)
	}
	if !strings.HasPrefix(r.dump(), "trace: 10 events recorded, 4 retained\n") {
		t.Fatalf("dump header:\n%s", r.dump())
	}
}

func TestRingUnderfilled(t *testing.T) {
	r := newTraceRing(10)
	r.Observe(nil, &core.Event{Kind: core.KindDeliver, Msg: 1})
	r.Observe(nil, &core.Event{Kind: core.KindComplete, Msg: 2})
	if got := strings.Join(ringMsgs(t, r), " "); got != "1 2" {
		t.Fatalf("retained msgs %q", got)
	}
}

// TestDumpAndCounts: each retained event is one line in the format
// internal/udpnet's trace test parses, and the lines count the kinds.
func TestDumpAndCounts(t *testing.T) {
	r := newTraceRing(8)
	r.Observe(nil, &core.Event{At: time.Microsecond, Kind: core.KindSendData, Msg: 7, Pkt: 3, A: 1460})
	r.Observe(nil, &core.Event{At: 2 * time.Microsecond, Kind: core.KindSendData})
	r.Observe(nil, &core.Event{At: 3 * time.Microsecond, Kind: core.KindDeliver})
	d := r.dump()
	want := "         1µs SEND  msg=7 pkt=3 a=1460 b=0\n"
	if !strings.Contains(d, want) {
		t.Fatalf("dump has no line %q:\n%s", want, d)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(d), "\n")[1:] {
		counts[strings.Fields(line)[1]]++
	}
	if counts["SEND"] != 2 || counts["DLVR"] != 1 || len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
}
