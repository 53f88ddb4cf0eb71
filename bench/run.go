package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// budget is how much measuring one workload gets. Every reported value is the
// median over Reps repetitions; the count is fixed and only their length
// follows -seconds. The repetitions are many and short because this class of
// host slows down by up to 2x for seconds at a time: a median over 25 short
// repetitions shrugs off an episode that would own 3 of 5 long ones.
type budget struct {
	Rep    time.Duration // length of one timed repetition
	Reps   int
	Setups int // set-ups per run; setup_s is their median
	// Quick shrinks warm-up and ladder iteration counts for the unit test.
	Quick bool
}

func newBudget(seconds float64, quick bool) budget {
	b := budget{Reps: 25, Setups: 9, Quick: quick}
	b.Rep = time.Duration(seconds / float64(b.Reps) * float64(time.Second))
	if quick {
		b.Setups = 1
	}
	return b
}

// wlResult is everything one workload run measured. Metrics holds end-to-end
// and per-layer cells side by side; their names never collide because every
// per-layer name carries its layer as a prefix.
type wlResult struct {
	Workload  string           `json:"workload"`
	W         int              `json:"w"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload measures one workload untraced.
func runWorkload(def *workloadDef, seed int64, b budget) (wlResult, error) {
	res := wlResult{Workload: def.Name, W: 1}
	spin, rtt := cpuSpin(), udpRTT(300)
	var cells map[string]value
	var err error
	if def.Net != nil {
		res.W = def.Net.W
		cells, err = res.runNet(*def.Net, seed, b)
	} else {
		cells = res.runSim(seed, b)
	}
	if err != nil {
		return res, err
	}
	cells["os.spin_us_p50"] = exact(spin.Micros())
	cells["os.udp_rtt_us_p50"] = exact(rtt.Micros())
	cells["bench.fail_frac"] = exact(res.failFrac())
	res.Metrics = cells
	return res, nil
}

func (res *wlResult) failFrac() float64 {
	if res.Attempted == 0 {
		return 0
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// setupDue says whether another set-up belongs after repetition r (counted
// from 0), given how many have been made. The first set-up builds what is
// measured; the others build and tear down a spare after every third
// repetition, so that setup_s samples the host over the whole run like every
// other cell, not over its first second.
func (b budget) setupDue(r, made int) bool { return (r+1)%3 == 0 && made < b.Setups }

// warmup is how many messages one set-up of spec pushes through.
func (b budget) warmup(spec netSpec) int {
	if b.Quick {
		return spec.Warmup / 10
	}
	return spec.Warmup
}

// accountSim charges one RunScale call to the result: every message the MTP
// row did not complete has failed, and so have all of them if the rendered
// result is not the golden one.
func (res *wlResult) accountSim(run simRun) {
	row := run.res.Rows[0]
	res.Attempted += int64(row.Expected)
	res.Failed += int64(row.Expected - row.Completed)
	if got := run.res.String(); got != goldenIncast {
		res.Failed += int64(row.Completed)
		fmt.Fprintf(os.Stderr, "sim_incast: result differs from golden/sim_incast.txt:\n%s", got)
	}
}

func (res *wlResult) runNet(spec netSpec, seed int64, b budget) (map[string]value, error) {
	var setups []float64
	setup := func() (*pair, error) {
		t0 := time.Now()
		p, err := newPair(spec, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		res.Attempted += p.drive(time.Time{}, b.warmup(spec))
		setups = append(setups, time.Since(t0).Seconds())
		return p, nil
	}
	p, err := setup()
	if err != nil {
		return nil, err
	}
	samples := repSamples{}
	var heaps []float64
	for r := 0; r < b.Reps; r++ {
		m, attempted := p.timedRep(b.Rep)
		res.Attempted += attempted
		samples.add(m)
		if (r+1)%5 == 0 {
			heaps = append(heaps, p.liveHeap().MB())
		}
		if b.setupDue(r, len(setups)) {
			spare, err := setup()
			if err != nil {
				p.close()
				return nil, err
			}
			spare.close()
			res.Failed += spare.failures()
		}
	}
	cells := samples.cells()
	cells["setup_s"] = summarize(setups)
	cells["os.sockets_open"] = exact(float64(socketsOpen()))
	cells["live_heap_MB"] = summarize(heaps)
	p.close()
	res.Failed += p.failures()
	return cells, nil
}

func (res *wlResult) runSim(seed int64, b budget) map[string]value {
	setups := []float64{simSetup(seed).Seconds()}
	samples := repSamples{}
	minRuns := 3
	if b.Quick {
		minRuns = 1
	}
	var last simRun
	// The budget is measuring time: the set-ups between runs do not count.
	var measured time.Duration
	for n := 0; n < minRuns || measured < b.Rep*time.Duration(b.Reps); n++ {
		t0 := time.Now()
		last = runScale(simIncast(seed), nil)
		measured += time.Since(t0)
		res.accountSim(last)
		samples.add(last.metrics())
		if b.setupDue(n, len(setups)) {
			setups = append(setups, simSetup(seed).Seconds())
		}
	}
	// A short run makes too few RunScale calls to fit every set-up between them.
	for len(setups) < b.Setups {
		setups = append(setups, simSetup(seed).Seconds())
	}
	cells := samples.cells()
	cells["setup_s"] = summarize(setups)
	cells["os.sockets_open"] = exact(float64(socketsOpen()))
	// The last result, with its per-message FCT rows, is still referenced.
	cells["live_heap_MB"] = exact(liveHeap().MB())
	runtime.KeepAlive(last)
	return cells
}

// socketsOpen counts the socket descriptors this process has opened itself
// (those it inherited, such as a socket for standard input, are taken out).
// The bypass workloads (small_mem, sim_incast) must read 0: they cannot be
// moved by a change to udpnet or the kernel path because they never reach
// either.
func socketsOpen() int { return countSockets() - socketsInherited }

var socketsInherited = countSockets()

func countSockets() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if t, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(t, "socket:") {
			n++
		}
	}
	return n
}
