package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *resultSet) workload(name string) *wlResult {
	for i := range s.Results {
		if s.Results[i].Workload == name {
			return &s.Results[i]
		}
	}
	return nil
}

// noiseGauge is read before each workload starts, by the same probe whatever
// the workload; if it drifts by more than noiseDrift between a set's first and
// last workload, the host changed under the run and its numbers should not be
// trusted. (os.udp_rtt_us_p50 and go.sched_lat_us_p99 were tried first and
// are still reported, but neither works as a gauge: the raw UDP round trip
// reads 7 us or 11 us depending on whether the cores were busy just before,
// and scheduling latency depends on the workload it is read under: 25 us under
// rpc_pingpong_udp, 300 us and more under sim_incast, on a quiet host.)
const (
	noiseGauge = "os.spin_us_p50"
	noiseDrift = 0.25
)

func (s *resultSet) noisy(w io.Writer, label string) {
	if len(s.Results) < 2 {
		return
	}
	first, last := s.Results[0], s.Results[len(s.Results)-1]
	a, b := first.Metrics[noiseGauge].Median, last.Metrics[noiseGauge].Median
	if a > 0 && math.Abs(b-a)/a > noiseDrift {
		fmt.Fprintf(w, "noisy host: set %s: %s drifted %+.0f%% between %s (%.2f) and %s (%.2f)\n",
			label, noiseGauge, 100*(b-a)/a, first.Workload, a, last.Workload, b)
	}
}

// compareSets prints, per (workload, metric), the two medians, their relative
// difference and the bound, and returns non-zero if any end-to-end cell
// differs by more than its bound in either direction, or an exact count
// differs at all.
func compareSets(w io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s  commit %s seed %d %gs  %s\n", pathA, a.Commit, a.Seed, a.Seconds, a.Date)
	fmt.Fprintf(w, "B: %s  commit %s seed %d %gs  %s\n", pathB, b.Commit, b.Seed, b.Seconds, b.Date)
	a.noisy(w, "A")
	b.noisy(w, "B")

	beyond := 0
	for _, def := range workloads {
		ra, rb := a.workload(def.Name), b.workload(def.Name)
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", def.Name)
		for _, d := range endToEnd {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			diff := 0.0
			if va.Median != 0 {
				diff = (vb.Median - va.Median) / va.Median
			}
			verdict := ""
			if math.Abs(diff) > d.Bound {
				beyond++
				worse := diff > 0
				if d.Better == "higher" {
					worse = !worse
				}
				verdict = "  BEYOND BOUND (B better)"
				if worse {
					verdict = "  BEYOND BOUND (B worse)"
				}
			}
			fmt.Fprintf(w, "  %-18s %14.4f %14.4f %-5s %+7.2f%%  bound %4.0f%%%s\n",
				d.Name, va.Median, vb.Median, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if okA && okB && strings.Contains(d.Moves, "exact") && va.Median != vb.Median {
				beyond++
				fmt.Fprintf(w, "  %-28s %v != %v  EXACT COUNT DIFFERS\n", d.Name, va.Median, vb.Median)
			}
		}
	}
	if beyond > 0 {
		fmt.Fprintf(w, "\n%d cell(s) beyond bound\n", beyond)
		return 1
	}
	fmt.Fprintf(w, "\nall end-to-end cells within bounds\n")
	return 0
}
