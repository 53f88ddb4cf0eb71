package platform

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"mtp/internal/chaos"
)

// SpawnFunc starts worker number index for the current point, pointed at
// the launcher's control address, and returns a handle to wait on it.
type SpawnFunc func(index int, controlAddr string) (Proc, error)

// Proc is a spawned worker: Wait blocks until it exits; Kill tears it
// down early (cleanup after a failed point, or a scheduled chaos kill).
type Proc interface {
	Wait() error
	Kill()
}

// Signaler is the optional Proc extension the chaos executor needs for
// brownouts: SIGSTOP/SIGCONT to freeze and thaw a worker. ReexecSpawn's
// processes implement it; a Proc that does not cannot be browned out.
type Signaler interface {
	Signal(sig os.Signal) error
}

// ReexecSpawn spawns workers by re-executing the current binary — the
// onet localhost pattern: one binary is both launcher and worker. Each
// occurrence of "{control}" and "{index}" in args is substituted; worker
// output goes to the launcher's stderr.
func ReexecSpawn(args ...string) SpawnFunc {
	return func(index int, controlAddr string) (Proc, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		argv := make([]string, len(args))
		for i, a := range args {
			a = strings.ReplaceAll(a, "{control}", controlAddr)
			a = strings.ReplaceAll(a, "{index}", strconv.Itoa(index))
			argv[i] = a
		}
		cmd := exec.Command(self, argv...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &procCmd{cmd: cmd}, nil
	}
}

// procCmd adapts exec.Cmd to Proc. Wait is single-flight: the chaos
// executor reaps a killed worker from a background goroutine while point
// teardown waits on every process, and exec.Cmd.Wait must only ever run
// once per process.
type procCmd struct {
	cmd  *exec.Cmd
	once sync.Once
	err  error
}

func (p *procCmd) Wait() error {
	p.once.Do(func() { p.err = p.cmd.Wait() })
	return p.err
}

func (p *procCmd) Kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
}

// Signal delivers sig to the worker process (chaos brownouts).
func (p *procCmd) Signal(sig os.Signal) error {
	if p.cmd.Process == nil {
		return fmt.Errorf("platform: process not started")
	}
	return p.cmd.Process.Signal(sig)
}

// phaseTimeout bounds each control-plane phase (worker registration,
// setup/ready, sink drain): a worker that cannot even register is detected
// in seconds, not PointTimeout.
const phaseTimeout = 30 * time.Second

// Options tunes a Run.
type Options struct {
	// Spawn starts workers. Nil panics — commands pass ReexecSpawn with
	// their worker flag spelling; tests run workers as goroutines.
	Spawn SpawnFunc
	// PointTimeout bounds one experiment point's load phase end to end.
	// Default 5min.
	PointTimeout time.Duration
	// HeartbeatTimeout is how long a worker's control connection may stay
	// silent before the launcher declares it dead. Workers beat every
	// hbInterval; the default 4s rides out scheduler hiccups while still
	// catching a wedged (not just crashed) worker fast.
	HeartbeatTimeout time.Duration
	// Chaos is an optional process-chaos schedule executed against each
	// point, offsets relative to the start command. Requires a
	// signal-capable Spawn (ReexecSpawn); killing the sink fails the
	// point by design.
	Chaos chaos.Schedule
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// WorkerOutcome is one worker's fate in a point, for degraded-run
// forensics.
type WorkerOutcome struct {
	Index int `json:"index"`
	// Status: "ok" (reported a result), "respawned" (crashed, relaunched,
	// reported a result under a fresh incarnation), "killed" (died and
	// never reported).
	Status string `json:"status"`
	// Completed is the worker's acknowledged-message count (generators).
	Completed int `json:"completed,omitempty"`
	// Err records why the worker died, when it did.
	Err string `json:"error,omitempty"`
}

// PointResult is the merged outcome of one experiment point.
type PointResult struct {
	Point Point
	// Msgs is the total end-to-end acknowledged message count across
	// reporting generators; Lost is acknowledged-but-not-delivered
	// (exactly-once violations) plus never-acknowledged sends — zero on
	// a clean run.
	Msgs int
	Lost int
	// Degraded is set when a worker died mid-run (chaos or otherwise)
	// and the result covers the surviving set only. The zero-loss gate
	// still holds per survivor; aggregate throughput is not comparable
	// to a clean run.
	Degraded bool
	// Outcomes records each worker's fate, index-aligned with the
	// point's processes. Nil on a clean run with no chaos schedule.
	Outcomes []WorkerOutcome
	// SendErrors counts node.Send calls that failed at the API across
	// all reporting generators; nonzero fails the point.
	SendErrors int
	// Elapsed is the slowest generator's send-loop wall time.
	Elapsed time.Duration
	// CPUSec sums user+system CPU over all workers including the sink.
	CPUSec float64
	// Derived rates and latencies.
	MsgsPerSec     float64
	MsgsPerSecCore float64
	P50, P99       time.Duration
	AllocsPerMsg   float64
	Retx           uint64
	// RingDrops sums receive-ring overflow across all reporting workers.
	RingDrops uint64
}

// BenchLine renders the result as one `go test -bench`-style line with
// custom units (the single-process counterparts bench/ records are
// msgs_per_s, allocs_per_msg, mtp.lat_p50_us, mtp.lat_p99_us and
// mtp.retx_per_kmsg on small_udp).
func (r PointResult) BenchLine() string {
	nsPerOp := 0.0
	if r.Msgs > 0 {
		nsPerOp = r.Elapsed.Seconds() * 1e9 / float64(r.Msgs)
	}
	return fmt.Sprintf("BenchmarkNetPoint/%s %d %.1f ns/op %.0f msgs/s %.0f msgs/s-core %.1f p50-us %.1f p99-us %.1f allocs/msg %d retx",
		r.Point.label(), r.Msgs, nsPerOp, r.MsgsPerSec, r.MsgsPerSecCore,
		float64(r.P50)/float64(time.Microsecond), float64(r.P99)/float64(time.Microsecond),
		r.AllocsPerMsg, r.Retx)
}

// Run executes every point in order, spawning opts.Spawn workers per
// point and merging their reports. It keeps going across points and
// returns every completed result; the error covers the first failed
// point (spawn failure, worker error, or lost messages — the zero-loss
// gate is part of the contract, not an option). A point where chaos or
// a crash took workers out mid-run but every survivor audits clean is a
// degraded success, not a failure.
func Run(points []Point, opts Options) ([]PointResult, error) {
	if opts.Spawn == nil {
		panic("platform.Run: nil Spawn")
	}
	if opts.PointTimeout <= 0 {
		opts.PointTimeout = 5 * time.Minute
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 4 * time.Second
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var results []PointResult
	var firstErr error
	for _, p := range points {
		logf("point %s: %d procs, %d msgs/gen x %dB, concurrency %d",
			p.label(), p.Procs, p.Messages, p.Size, p.Concurrency)
		r, err := runPoint(p, opts, logf)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("point %s: %w", p.label(), err)
			}
			logf("point %s FAILED: %v", p.label(), err)
			continue
		}
		results = append(results, r)
		if r.Degraded {
			logf("point %s DEGRADED: survivors clean, outcomes %+v", p.label(), r.Outcomes)
		}
		logf("point %s: %.0f msgs/s, %.0f msgs/s/core, p99 %v", p.label(), r.MsgsPerSec, r.MsgsPerSecCore, r.P99)
	}
	return results, firstErr
}
