// Command mtpping is an MTP echo server and client over UDP: the smallest
// possible real-network deployment of the message transport.
//
// Server:  mtpping -listen 127.0.0.1:9999
// Client:  mtpping -connect 127.0.0.1:9999 -count 5 -size 32768
//
// The client sends messages of the given size and reports per-message
// round-trip times measured at message (not packet) granularity, plus the
// packet-level retransmissions each ping cost. -interval paces the pings;
// -json switches the client to machine-readable output (one JSON object
// per ping, then a summary object).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"sync"
	"time"

	"mtp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its arguments, output and exit status as values.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mtpping", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "", "run an echo server on this UDP address")
		connect  = fs.String("connect", "", "send pings to this server address")
		count    = fs.Int("count", 5, "number of messages to send (at least 1)")
		size     = fs.Int("size", 1024, "message size in bytes (at least 4: the ping's tag)")
		port     = fs.Uint("port", 7, "MTP service port")
		ccAlgo   = fs.String("cc", "dctcp", "congestion control: dctcp, aimd, rcp, swift, dcqcn")
		doTrace  = fs.Bool("trace", false, "dump the protocol event trace at exit (client)")
		interval = fs.Duration("interval", 0, "pause between pings (like ping -i)")
		jsonOut  = fs.Bool("json", false, "emit JSON lines instead of text (client)")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	// The client tags payload[0:2] and its echo handler ignores anything
	// shorter than 4 bytes; the summary divides by the count.
	if *size < 4 || *count < 1 {
		fmt.Fprintf(os.Stderr, "mtpping: -size %d -count %d: need -size >= 4 and -count >= 1\n", *size, *count)
		return 2
	}

	switch {
	case *listen != "":
		runServer(*listen, uint16(*port), *ccAlgo)
	case *connect != "":
		runClient(stdout, *connect, uint16(*port), *ccAlgo, *count, *size, *doTrace, *interval, *jsonOut)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// newEchoNode opens the server: a node that sends every message back to its
// sender at the same priority.
func newEchoNode(addr string, port uint16, ccAlgo string) (*mtp.Node, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	var node *mtp.Node
	ready := make(chan struct{}) // closed once node is set: a message can arrive before NewNode returns
	node, err = mtp.NewNode(pc, mtp.Config{
		Port: port,
		CC:   ccAlgo,
		OnMessage: func(m mtp.Message) {
			<-ready
			if _, err := node.SendPriority(m.From.String(), m.SrcPort, m.Data, m.Priority); err != nil {
				log.Printf("echo to %s: %v", m.From, err)
			}
		},
	})
	close(ready)
	return node, err
}

func runServer(addr string, port uint16, ccAlgo string) {
	node, err := newEchoNode(addr, port, ccAlgo)
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	defer node.Close()
	log.Printf("mtp echo server on %s (port %d)", node.Addr(), port)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("stats: %+v", node.Stats())
}

// pingReport is one ping's -json line.
type pingReport struct {
	Seq   int     `json:"seq"`
	Bytes int     `json:"bytes"`
	RTTus float64 `json:"rtt_us"`
	// Retx is the packet-level retransmission count this ping incurred
	// (delta of the endpoint's PktsRetx across the exchange).
	Retx uint64 `json:"retx"`
}

// pingSummary is the final -json line.
type pingSummary struct {
	Count    int     `json:"count"`
	Bytes    int     `json:"bytes"`
	MinRTTus float64 `json:"min_rtt_us"`
	AvgRTTus float64 `json:"avg_rtt_us"`
	MaxRTTus float64 `json:"max_rtt_us"`
	// SRTTus and RTOus are the engine's own view of the path at exit: the
	// packet-level smoothed RTT the retransmission timer follows (the RTTs
	// above are message round trips through the echo handler) and the
	// timeout it arrived at; RTOBackoffs counts the timeout rounds that
	// doubled it on the way.
	SRTTus      float64 `json:"srtt_us"`
	RTOus       float64 `json:"rto_us"`
	RTOBackoffs uint64  `json:"rto_backoffs"`
	TotalRetx   uint64  `json:"total_retx"`
	PktsSent    uint64  `json:"pkts_sent"`
	// RingFullDrops separates local send-ring drops (NIC-style backpressure)
	// from network loss; StaleEpochDrops and EpochBumps surface peer
	// restarts observed during the run.
	RingFullDrops   uint64 `json:"ring_full_drops"`
	StaleEpochDrops uint64 `json:"stale_epoch_drops"`
	EpochBumps      uint64 `json:"epoch_bumps"`
	// Datagrams per batch (syscall) is the achieved socket batching,
	// datagrams per kernel message the achieved segmentation offload (1 where
	// the socket has none), and AcksReceived against PktsSent the ACK thinning
	// the peer's receive batches buy.
	AcksReceived   uint64 `json:"acks_received"`
	DatagramsIn    uint64 `json:"datagrams_in"`
	DatagramsOut   uint64 `json:"datagrams_out"`
	BatchesIn      uint64 `json:"batches_in"`
	BatchesOut     uint64 `json:"batches_out"`
	KernelMsgsIn   uint64 `json:"kernel_msgs_in"`
	KernelMsgsOut  uint64 `json:"kernel_msgs_out"`
	TruncatedDrops uint64 `json:"truncated_drops"`
}

func runClient(stdout io.Writer, addr string, port uint16, ccAlgo string, count, size int, doTrace bool, interval time.Duration, jsonOut bool) {
	pc, err := net.ListenPacket("udp", "0.0.0.0:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	traceEvents := 0
	if doTrace {
		traceEvents = 256
	}
	var mu sync.Mutex
	echoAt := make(map[int]time.Time) // payload tag -> echo time
	echoed := make(chan int, count)
	node, err := mtp.NewNode(pc, mtp.Config{
		Port:        99,
		CC:          ccAlgo,
		TraceEvents: traceEvents,
		OnMessage: func(m mtp.Message) {
			if len(m.Data) < 4 {
				return
			}
			tag := int(m.Data[0])<<8 | int(m.Data[1])
			mu.Lock()
			echoAt[tag] = time.Now()
			mu.Unlock()
			echoed <- tag
		},
	})
	if err != nil {
		log.Fatalf("node: %v", err)
	}
	defer node.Close()

	payload := make([]byte, size)
	rand.New(rand.NewSource(time.Now().UnixNano())).Read(payload)
	enc := json.NewEncoder(stdout)
	var rtts []time.Duration
	retxBase := node.Stats().PktsRetx
	for i := 0; i < count; i++ {
		if i > 0 && interval > 0 {
			time.Sleep(interval)
		}
		payload[0], payload[1] = byte(i>>8), byte(i)
		t0 := time.Now()
		out, err := node.Send(addr, port, payload)
		if err != nil {
			log.Fatalf("send: %v", err)
		}
		select {
		case <-out.Done():
		case <-time.After(10 * time.Second):
			log.Fatalf("message %d not acknowledged", i)
		}
		select {
		case <-echoed:
		case <-time.After(10 * time.Second):
			log.Fatalf("message %d not echoed", i)
		}
		mu.Lock()
		rtt := echoAt[i].Sub(t0)
		mu.Unlock()
		rtts = append(rtts, rtt)
		retxNow := node.Stats().PktsRetx
		retx := retxNow - retxBase
		retxBase = retxNow
		if jsonOut {
			_ = enc.Encode(pingReport{Seq: i, Bytes: size, RTTus: float64(rtt) / float64(time.Microsecond), Retx: retx})
		} else if retx > 0 {
			fmt.Fprintf(stdout, "msg %d: %d bytes echoed in %v (%d pkt retransmissions)\n", i, size, rtt, retx)
		} else {
			fmt.Fprintf(stdout, "msg %d: %d bytes echoed in %v\n", i, size, rtt)
		}
	}
	var total time.Duration
	min, max := rtts[0], rtts[0]
	for _, r := range rtts {
		total += r
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	st := node.Stats()
	srtt, rto, _ := node.RTT(addr)
	if jsonOut {
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		_ = enc.Encode(pingSummary{
			Count: len(rtts), Bytes: size,
			MinRTTus: us(min), AvgRTTus: us(total / time.Duration(len(rtts))), MaxRTTus: us(max),
			SRTTus: us(srtt), RTOus: us(rto), RTOBackoffs: st.RTOBackoffs,
			TotalRetx: st.PktsRetx, PktsSent: st.PktsSent,
			RingFullDrops: st.RingFullDrops, StaleEpochDrops: st.StaleEpochDrops, EpochBumps: st.EpochBumps,
			AcksReceived: st.AcksReceived,
			DatagramsIn:  st.DatagramsIn, DatagramsOut: st.DatagramsOut,
			BatchesIn: st.BatchesIn, BatchesOut: st.BatchesOut,
			KernelMsgsIn: st.KernelMsgsIn, KernelMsgsOut: st.KernelMsgsOut,
			TruncatedDrops: st.TruncatedDrops,
		})
	} else {
		fmt.Fprintf(stdout, "avg message RTT: %v over %d messages (min %v, max %v)\n",
			total/time.Duration(len(rtts)), len(rtts), min, max)
		fmt.Fprintf(stdout, "packets: %d sent, %d retransmitted; engine srtt %v, rto %v after %d backoffs\n",
			st.PktsSent, st.PktsRetx, srtt, rto, st.RTOBackoffs)
		fmt.Fprintf(stdout, "client stats: %+v\n", st)
	}
	if doTrace {
		fmt.Fprint(stdout, node.TraceDump())
	}
}
