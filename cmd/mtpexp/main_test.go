package main

import (
	"strings"
	"testing"

	"mtp/internal/baseline"
	"mtp/internal/exp"
)

// TestOneOf pins the up-front check of flags that select code by name: the
// experiment layer panics on an unknown topology, pattern or baseline, so
// outside input must be turned away before it gets there.
func TestOneOf(t *testing.T) {
	for _, tc := range []struct {
		name, value string
		accepted    []string
		ok          bool
	}{
		{"topo", "", exp.ScaleTopos, true}, // the experiment's default
		{"topo", "fattree", exp.ScaleTopos, true},
		{"topo", "foo", exp.ScaleTopos, false},
		{"pattern", "shuffle", exp.ScalePatterns, true},
		{"pattern", "Shuffle", exp.ScalePatterns, false},
		{"baseline", "quic", baseline.RivalNames(), true},
		{"baseline", "tcp", baseline.RivalNames(), false},
	} {
		err := oneOf(tc.name, tc.value, tc.accepted)
		if (err == nil) != tc.ok {
			t.Errorf("oneOf(%q, %q) = %v, want ok=%v", tc.name, tc.value, err, tc.ok)
		}
		if err != nil {
			for _, a := range tc.accepted {
				if !strings.Contains(err.Error(), a) {
					t.Errorf("error %q does not list accepted value %q", err, a)
				}
			}
		}
	}
}
