// Command mtploadgen drives an MTP sink with a configurable message
// workload over UDP (or an in-process pair with -local) and reports message
// completion latency percentiles and goodput — a minimal load-testing rig
// for the transport.
//
//	mtploadgen -local -count 2000 -size 16384 -concurrency 16
//	mtploadgen -sink 127.0.0.1:9999            # run the sink
//	mtploadgen -target 127.0.0.1:9999 -count 100
//
// With -runfile, mtploadgen becomes the deployment launcher: it parses the
// experiment points (the grammar is in internal/platform's package comment),
// re-execs itself once per process per point, coordinates the workers over
// a TCP control channel, prints one `go test -bench`-style line per point on
// stdout, and exits non-zero if any message was lost or duplicated (`make
// netbench`). The recorded rates are bench/'s msgs_per_s and allocs_per_msg
// on small_udp, the same datapath in one process:
//
//	mtploadgen -runfile ci/netbench.run
//
// Launcher mode can inject process chaos to rehearse crash tolerance: -chaos
// takes an explicit schedule spec ("kill:2@150ms"), or -chaos-seed derives a
// reproducible random schedule (printed in spec form so a failing run can be
// pinned). A run whose schedule kills a worker must come back degraded —
// survivors salvaged and audited — or the launcher exits non-zero:
//
//	mtploadgen -runfile ci/chaos.run -chaos kill:2@150ms
//	mtploadgen -runfile ci/chaos.run -chaos-seed 7 -chaos-events 2
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"mtp"
	"mtp/internal/chaos"
	"mtp/internal/platform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its arguments, output and exit status as values.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mtploadgen", flag.ContinueOnError)
	var (
		sink    = fs.String("sink", "", "run a sink on this UDP address")
		target  = fs.String("target", "", "send load to this sink address")
		local   = fs.Bool("local", false, "run sink and generator in-process over loopback UDP")
		runfile = fs.String("runfile", "", "run a multi-process experiment series from this runfile")

		// Chaos injection (launcher mode only).
		chaosSpec   = fs.String("chaos", "", "chaos schedule spec, e.g. kill:2@150ms,stop:1@1s+500ms")
		chaosSeed   = fs.Int64("chaos-seed", 0, "derive a reproducible chaos schedule from this seed")
		chaosEvents = fs.Int("chaos-events", 1, "events in a seed-derived schedule")
		chaosWindow = fs.Duration("chaos-window", 2*time.Second, "offset window for a seed-derived schedule")

		// Internal: the launcher re-execs itself with these to become one
		// worker of a point.
		workerMode  = fs.Bool("platform-worker", false, "internal: run as a platform worker")
		controlAddr = fs.String("control", "", "internal: launcher control address")
		workerIndex = fs.Int("index", -1, "internal: worker index (0 = sink)")
	)
	// The direct modes' workload is a platform.Point like a runfile row's, so
	// Point.Checked is the only validation.
	p := platform.Point{Procs: 2}
	fs.IntVar(&p.Messages, "count", 1000, "messages to send")
	fs.IntVar(&p.Size, "size", 16384, "message size in bytes")
	fs.IntVar(&p.Concurrency, "concurrency", 8, "concurrent outstanding messages")
	port := fs.Uint("port", 7, "MTP service port")
	if fs.Parse(args) != nil {
		return 2
	}
	if *port > 65535 {
		fmt.Fprintf(os.Stderr, "mtploadgen: -port %d, need <= 65535\n", *port)
		return 2
	}
	p.Port = uint16(*port)
	p, err := p.Checked()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtploadgen: %v\n", err)
		return 2
	}

	switch {
	case *workerMode:
		if err := platform.RunWorker(*controlAddr, *workerIndex); err != nil {
			log.Fatalf("worker %d: %v", *workerIndex, err)
		}
	case *runfile != "":
		runRunfile(*runfile, *chaosSpec, *chaosSeed, *chaosEvents, *chaosWindow)
	case *sink != "":
		runSink(*sink, p)
	case *local:
		s, err := platform.ListenSink("127.0.0.1:0", p)
		if err != nil {
			log.Fatalf("sink: %v", err)
		}
		defer s.Node.Close()
		return runLoad(stdout, s.Node.Addr().String(), p)
	case *target != "":
		return runLoad(stdout, *target, p)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// runRunfile is launcher mode: execute every point, bench lines on
// stdout, progress on stderr. Any failed point — including the zero-loss
// gate — exits non-zero after the remaining points have run.
func runRunfile(path, chaosSpec string, chaosSeed int64, chaosEvents int, chaosWindow time.Duration) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("runfile: %v", err)
	}
	points, err := platform.ParseRunfile(data)
	if err != nil {
		log.Fatal(err)
	}
	sched := chaosSchedule(points, chaosSpec, chaosSeed, chaosEvents, chaosWindow)
	results, err := platform.Run(points, platform.Options{
		Spawn: platform.ReexecSpawn("-platform-worker", "-control", "{control}", "-index", "{index}"),
		Log:   log.Printf,
		Chaos: sched,
	})
	for _, r := range results {
		fmt.Println(r.BenchLine())
	}
	if err != nil {
		log.Fatal(err)
	}
	// A schedule with kills must have landed: if every point still came back
	// clean, the chaos missed the run window and the smoke proved nothing.
	if len(sched.Victims()) > 0 {
		degraded := false
		for _, r := range results {
			degraded = degraded || r.Degraded
		}
		if !degraded {
			log.Fatalf("chaos schedule %q killed no run: every point completed clean", sched)
		}
	}
}

// chaosSchedule resolves the chaos flags into a schedule: an explicit spec
// wins; otherwise a nonzero seed derives one over the generator indexes
// shared by every point (index 0, the sink, is never a victim — killing it
// fails the point by design).
func chaosSchedule(points []platform.Point, spec string, seed int64, events int, window time.Duration) chaos.Schedule {
	if spec != "" {
		sched, err := chaos.Parse(spec)
		if err != nil {
			log.Fatal(err)
		}
		return sched
	}
	if seed == 0 {
		return nil
	}
	minProcs := points[0].Procs
	for _, p := range points[1:] {
		if p.Procs < minProcs {
			minProcs = p.Procs
		}
	}
	gens := make([]int, 0, minProcs-1)
	for i := 1; i < minProcs; i++ {
		gens = append(gens, i)
	}
	sched := chaos.Generate(seed, gens, events, window)
	log.Printf("chaos schedule (seed %d): %s", seed, sched)
	return sched
}

func runSink(addr string, p platform.Point) {
	s, err := platform.ListenSink(addr, p)
	if err != nil {
		log.Fatalf("sink: %v", err)
	}
	defer s.Node.Close()
	log.Printf("mtp sink on %s", s.Node.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	res := s.Result()
	log.Printf("received %d messages, %d bytes", res.Received, res.Bytes)
}

// runLoad drives target with p's workload (platform.Generate, the launcher's
// own generator) and prints the outcome; any message short of p.Messages is
// exit status 1.
func runLoad(stdout io.Writer, target string, p platform.Point) int {
	pc, err := net.ListenPacket("udp", "0.0.0.0:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	node, err := mtp.NewNode(pc, mtp.Config{Port: 100})
	if err != nil {
		log.Fatalf("node: %v", err)
	}
	defer node.Close()

	res := platform.Generate(node, target, p)
	elapsed := time.Duration(res.ElapsedSec * float64(time.Second))
	fmt.Fprintf(stdout, "completed %d/%d messages of %d bytes in %v\n", res.Completed, p.Messages, p.Size, elapsed)
	fmt.Fprintf(stdout, "goodput: %.2f Gbit/s\n", float64(res.Completed)*float64(p.Size)*8/res.ElapsedSec/1e9)
	fmt.Fprintf(stdout, "latency p50=%v p90=%v p99=%v max=%v\n",
		res.Latency(0.50), res.Latency(0.90), res.Latency(0.99), res.Latency(1))
	fmt.Fprintf(stdout, "stats: %+v\n", node.Stats())
	if res.Completed < p.Messages {
		log.Printf("%d send errors, %d timed out", res.SendErrors, res.Timeouts)
		return 1
	}
	return 0
}
