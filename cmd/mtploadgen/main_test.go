package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestLocalLoad drives the in-process sink over loopback UDP through the
// command's own entry point.
func TestLocalLoad(t *testing.T) {
	var out bytes.Buffer
	if status := run([]string{"-local", "-count", "50", "-size", "2048", "-concurrency", "4"}, &out); status != 0 {
		t.Fatalf("exit status %d\n%s", status, out.String())
	}
	for _, want := range []string{"completed 50/50 messages of 2048 bytes", "goodput: ", "latency p50=", "MsgsCompleted:50"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRejectsBadWorkload: the flags fill a platform.Point, so its validation
// turns away what used to panic in make(chan, -1) or loop on nothing.
func TestRejectsBadWorkload(t *testing.T) {
	for _, args := range [][]string{
		{"-local", "-concurrency", "-1"},
		{"-local", "-count", "0"},
		{"-local", "-size", "0"},
		{"-local", "-port", "70000"},
		{"-local", "-count", "many"},
		{},
	} {
		if status := run(args, io.Discard); status != 2 {
			t.Errorf("run(%q) = %d, want 2", args, status)
		}
	}
}
