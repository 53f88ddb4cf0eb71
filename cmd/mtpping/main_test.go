package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// TestClientJSON pings an in-process echo server through the command's own
// entry point and decodes what -json promises: one report per ping, then the
// summary.
func TestClientJSON(t *testing.T) {
	srv, err := newEchoNode("127.0.0.1:0", 7, "dctcp")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var out bytes.Buffer
	if status := run([]string{"-connect", srv.Addr().String(), "-count", "3", "-size", "2048", "-json"}, &out); status != 0 {
		t.Fatalf("exit status %d\n%s", status, out.String())
	}
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	for i := 0; i < 3; i++ {
		var r pingReport
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if r.Seq != i || r.Bytes != 2048 || r.RTTus <= 0 {
			t.Errorf("report %d = %+v", i, r)
		}
	}
	var sum pingSummary
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if sum.Count != 3 || sum.Bytes != 2048 || sum.MinRTTus <= 0 || sum.MinRTTus > sum.AvgRTTus || sum.AvgRTTus > sum.MaxRTTus || sum.PktsSent == 0 {
		t.Errorf("summary = %+v", sum)
	}
	// The engine's timeout toward the server: measured (three clean loopback
	// samples leave it well under the 20 ms it starts at), never above it.
	if sum.SRTTus <= 0 || sum.RTOus <= 0 || sum.RTOus > 20000 {
		t.Errorf("summary srtt_us %v rto_us %v, want 0 < rto_us <= 20000", sum.SRTTus, sum.RTOus)
	}
	if dec.More() {
		t.Errorf("output continues past the summary")
	}
}

// TestRejectsSizeAndCount: the client tags payload[0:2] and its echo handler
// drops anything under 4 bytes, so -size 1 used to panic and -size 2 to wait
// 10 s for an echo that could not come; -count 0 panicked in the summary.
func TestRejectsSizeAndCount(t *testing.T) {
	for _, args := range [][]string{
		{"-connect", "127.0.0.1:9", "-size", "1"},
		{"-connect", "127.0.0.1:9", "-size", "3"},
		{"-connect", "127.0.0.1:9", "-size", "-1"},
		{"-connect", "127.0.0.1:9", "-count", "0"},
		{"-connect", "127.0.0.1:9", "-count", "-2"},
		{"-connect", "127.0.0.1:9", "-count", "x"},
		{},
	} {
		if status := run(args, io.Discard); status != 2 {
			t.Errorf("run(%q) = %d, want 2", args, status)
		}
	}
}
