package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanCapacity bounds the in-memory span buffer (32 bytes each); rungs are
// granted slices of it so every rung is represented in spans.jsonl.
const spanCapacity = 1 << 17

// measureTraced is the traced run: the ladder once, then each workload twice
// on fresh node pairs, unshimmed for its own counters and shimmed for spans.
// End-to-end metrics are never taken from here.
func measureTraced(stdout io.Writer, defs []workloadDef, o options, b budget) ([]wlResult, error) {
	rec := newRecorder(spanCapacity)
	lad := runLadder(stdout, o.seed, b, rec)
	fmt.Fprintf(stdout, "  spans    worst root-vs-tree self-time gap %.2f%%; ladder faults %d\n", 100*lad.closure, lad.faults)

	var results []wlResult
	for i := range defs {
		r, err := traceWorkload(&defs[i], o.seed, b, rec)
		if err != nil {
			return results, err
		}
		var own []metricDef
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; ok && strings.HasPrefix(d.Moves, "[wl]") {
				own = append(own, d)
			}
		}
		printWorkload(stdout, r, own)
		// A failed ladder rung fails the run it was part of.
		r.Failed += lad.faults
		for name, cell := range lad.cells {
			if _, mine := r.Metrics[name]; !mine {
				r.Metrics[name] = cell
			}
		}
		results = append(results, r)
	}

	path := filepath.Join(o.home, "out", "spans.jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return results, err
	}
	if err := rec.writeJSONL(path); err != nil {
		return results, err
	}
	fmt.Fprintf(stdout, "\n%d spans written to %s (%d not recorded: over a rung's quota)\n", len(rec.recorded(0)), path, rec.dropped.Load())
	return results, nil
}

// traceWorkload runs one repetition of the workload as is, for the per-layer
// counters read from the workload's own run, and one repetition shimmed and
// traced; the difference in rate between the two is the tracing overhead.
func traceWorkload(def *workloadDef, seed int64, b budget, rec *recorder) (wlResult, error) {
	res := wlResult{Workload: def.Name, W: 1}
	var plain, traced map[string]float64
	if def.Net == nil {
		for _, r := range []*recorder{nil, rec} {
			rec.grant(1)
			run := runScale(simIncast(seed), r)
			res.accountSim(run)
			if r == nil {
				plain = run.metrics()
				plain["os.sockets_open"] = float64(socketsOpen())
			} else {
				traced = run.metrics()
			}
		}
	} else {
		spec := *def.Net
		res.W = spec.W
		for _, r := range []*recorder{nil, rec} {
			rec.grant(0) // warm-up is not recorded
			p, err := newPair(spec, seed, r)
			if err != nil {
				return res, fmt.Errorf("%s: %w", spec.Name, err)
			}
			res.Attempted += p.drive(time.Time{}, b.warmup(spec))
			rec.grant(8000)
			m, attempted := p.timedRep(b.Rep * time.Duration(b.Reps) / 5)
			res.Attempted += attempted
			if r == nil {
				plain = m
				plain["os.sockets_open"] = float64(socketsOpen())
			} else {
				traced = m
			}
			p.close()
			res.Failed += p.failures()
		}
	}
	res.Metrics = make(map[string]value, len(plain))
	for k, v := range plain {
		res.Metrics[k] = exact(v)
	}
	if plain["msgs_per_s"] > 0 {
		res.Metrics["bench.trace_overhead_frac"] = exact(1 - traced["msgs_per_s"]/plain["msgs_per_s"])
	}
	res.Metrics["bench.fail_frac"] = exact(res.failFrac())
	return res, nil
}
