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
// experiment points (onet-style table or JSON; see internal/platform),
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
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"sync"
	"time"

	"mtp"
	"mtp/internal/chaos"
	"mtp/internal/platform"
)

func main() {
	var (
		sink        = flag.String("sink", "", "run a sink on this UDP address")
		target      = flag.String("target", "", "send load to this sink address")
		local       = flag.Bool("local", false, "run sink and generator in-process over loopback UDP")
		count       = flag.Int("count", 1000, "messages to send")
		size        = flag.Int("size", 16384, "message size in bytes")
		concurrency = flag.Int("concurrency", 8, "concurrent outstanding messages")
		port        = flag.Uint("port", 7, "MTP service port")
		runfile     = flag.String("runfile", "", "run a multi-process experiment series from this runfile")

		// Chaos injection (launcher mode only).
		chaosSpec   = flag.String("chaos", "", "chaos schedule spec, e.g. kill:2@150ms,stop:1@1s+500ms")
		chaosSeed   = flag.Int64("chaos-seed", 0, "derive a reproducible chaos schedule from this seed")
		chaosEvents = flag.Int("chaos-events", 1, "events in a seed-derived schedule")
		chaosWindow = flag.Duration("chaos-window", 2*time.Second, "offset window for a seed-derived schedule")

		// Internal: the launcher re-execs itself with these to become one
		// worker of a point.
		workerMode  = flag.Bool("platform-worker", false, "internal: run as a platform worker")
		controlAddr = flag.String("control", "", "internal: launcher control address")
		workerIndex = flag.Int("index", -1, "internal: worker index (0 = sink)")
	)
	flag.Parse()

	switch {
	case *workerMode:
		if err := platform.RunWorker(*controlAddr, *workerIndex); err != nil {
			log.Fatalf("worker %d: %v", *workerIndex, err)
		}
	case *runfile != "":
		runRunfile(*runfile, *chaosSpec, *chaosSeed, *chaosEvents, *chaosWindow)
	case *sink != "":
		runSink(*sink, uint16(*port))
	case *local:
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		node, err := mtp.NewNode(pc, mtp.Config{Port: uint16(*port)})
		if err != nil {
			log.Fatalf("sink: %v", err)
		}
		defer node.Close()
		runLoad(node.Addr().String(), uint16(*port), *count, *size, *concurrency)
	case *target != "":
		runLoad(*target, uint16(*port), *count, *size, *concurrency)
	default:
		flag.Usage()
		os.Exit(2)
	}
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

func runSink(addr string, port uint16) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	var received, bytes uint64
	var mu sync.Mutex
	node, err := mtp.NewNode(pc, mtp.Config{Port: port, OnMessage: func(m mtp.Message) {
		mu.Lock()
		received++
		bytes += uint64(len(m.Data))
		mu.Unlock()
	}})
	if err != nil {
		log.Fatalf("node: %v", err)
	}
	defer node.Close()
	log.Printf("mtp sink on %s", node.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	mu.Lock()
	log.Printf("received %d messages, %d bytes", received, bytes)
	mu.Unlock()
}

func runLoad(target string, port uint16, count, size, concurrency int) {
	pc, err := net.ListenPacket("udp", "0.0.0.0:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	node, err := mtp.NewNode(pc, mtp.Config{Port: 100})
	if err != nil {
		log.Fatalf("node: %v", err)
	}
	defer node.Close()

	payload := make([]byte, size)
	lat := make([]time.Duration, 0, count)
	var mu sync.Mutex
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup

	start := time.Now()
	for i := 0; i < count; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			out, err := node.Send(target, port, payload)
			if err != nil {
				log.Printf("send: %v", err)
				return
			}
			select {
			case <-out.Done():
				mu.Lock()
				lat = append(lat, time.Since(t0))
				mu.Unlock()
			case <-time.After(30 * time.Second):
				log.Printf("message %d timed out", out.ID)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if len(lat) == 0 {
		log.Fatal("no messages completed")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		idx := int(p / 100 * float64(len(lat)-1))
		return lat[idx]
	}
	totalBytes := float64(len(lat)) * float64(size)
	fmt.Printf("completed %d/%d messages of %d bytes in %v\n", len(lat), count, size, elapsed)
	fmt.Printf("goodput: %.2f Gbit/s\n", totalBytes*8/elapsed.Seconds()/1e9)
	fmt.Printf("latency p50=%v p90=%v p99=%v max=%v\n", pct(50), pct(90), pct(99), lat[len(lat)-1])
	fmt.Printf("stats: %+v\n", node.Stats())
}
