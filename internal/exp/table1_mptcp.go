package exp

import (
	"fmt"
	"time"

	"mtp/internal/baseline"
	"mtp/internal/cc"
	"mtp/internal/simnet"
)

// The MPTCP probes below measure the two MPTCP rows of Table 1 (assembled in
// RunTable1): two uncoupled subflows (CouplingNone) and RFC 6356-style
// coupled congestion control (OLIA). Subflows are byte streams, so mutation
// inherits TCP's verdict; the interesting cells are measured here: merge
// buffering, per-subflow independence, per-path windows. Coupling changes
// window arithmetic only, so each probe runs once per row and the evidence
// says what coupling did not change.

// mptcpPair runs an MPTCP sender and receiver over the two-path rig behind
// an ECMP switch: path rates r1 and r2, the second path's delay d2.
func mptcpPair(seed int64, r1, r2 float64, d2 time.Duration, coupling baseline.Coupling) (*twoPath, *baseline.MPTCP, *baseline.MPTCPReceiver) {
	rig := newTwoPath(twoPathSpec{
		FastRate: r1, SlowRate: r2, LinkDelay: time.Microsecond, SlowDelay: d2,
		QueueCap: 256, ECNThreshold: 40, EdgeRate: r1 + r2, EdgeQueue: 4096,
		Seed: seed, Policy: simnet.ECMP{},
	})
	// ECMP's hash multiplies by an odd constant, so an odd and an even
	// connection ID take different paths.
	conns := []uint64{1, 2}
	m := baseline.NewMPTCP(rig.eng, rig.snd, baseline.MPTCPConfig{
		Conns: conns, Dst: rig.rcv.ID(), RTO: 2 * time.Millisecond,
		CCConfig: cc.Config{MaxWindow: 256 << 10},
		Coupling: coupling,
	})
	r := baseline.NewMPTCPReceiver(rig.eng, rig.rcv, rig.snd.ID(), conns)
	rig.snd.SetHandler(func(pkt *simnet.Packet) {
		for _, s := range m.Subflows() {
			s.OnPacket(pkt)
		}
	})
	rig.rcv.SetHandler(r.OnPacket)
	return rig, m, r
}

func probeMutationMPTCP() Table1Cell {
	// Subflows are TCP byte streams: rewrite the sequence space under one
	// and the whole stream wedges — same mechanism as the TCP probe,
	// measured there.
	tcp := probeMutationTCP()
	tcp.Evidence = "subflows are byte streams: " + tcp.Evidence
	return tcp
}

func probeBufferingMPTCP(coupling baseline.Coupling) Table1Cell {
	// Unequal path delays force the receiver to buffer the fast path's
	// bytes until the slow path catches up — MPTCP's merge-buffer cost,
	// which coupling leaves alone.
	rig, m, r := mptcpPair(1, 10e9, 10e9, 200*time.Microsecond, coupling)
	m.Write(8 << 20)
	rig.eng.Run(20 * time.Millisecond)
	what := "receiver merge buffer"
	if coupling != baseline.CouplingNone {
		what = "coupling does not shrink the merge buffer:"
	}
	return Table1Cell{
		Feature:  table1Features[1],
		Pass:     r.MaxPending < 64<<10, // it will not be
		Evidence: fmt.Sprintf("%s peaked at %d KB across unequal paths", what, r.MaxPending>>10),
	}
}

func probeIndependenceMPTCP(coupling baseline.Coupling) Table1Cell {
	// Two subflows on two paths both make progress: sub-streams are
	// independent units the network can route separately (the property the
	// paper credits MPTCP with), coupled or not.
	rig, m, r := mptcpPair(2, 10e9, 10e9, time.Microsecond, coupling)
	m.Write(32 << 20)
	dur := 8 * time.Millisecond
	rig.eng.Run(dur)
	gbps := float64(r.Contiguous()) * 8 / dur.Seconds() / 1e9
	l1, l2 := rig.fast.Stats().TxBytes, rig.slow.Stats().TxBytes
	what := "subflows"
	if coupling != baseline.CouplingNone {
		what = "coupled subflows still"
	}
	return Table1Cell{
		Feature: table1Features[2],
		Pass:    l1 > 1<<20 && l2 > 1<<20 && gbps > 12,
		Evidence: fmt.Sprintf("%s routed independently: %.1f Gbps over two 10G paths (%d/%d MB per path)",
			what, gbps, l1>>20, l2>>20),
	}
}

func probeMultiResourceMPTCP(coupling baseline.Coupling) Table1Cell {
	// Host-pinned paths: per-subflow windows size to each resource. A
	// coupled increase still adapts each window to its own path; OLIA's
	// whole point is shifting load toward the better one.
	rig, m, _ := mptcpPair(3, 40e9, 5e9, time.Microsecond, coupling)
	m.Write(64 << 20)
	rig.eng.Run(15 * time.Millisecond)
	s0, s1 := m.Subflows()[0], m.Subflows()[1]
	fast, slow := s0, s1
	if s1.Acked() > s0.Acked() {
		fast, slow = s1, s0
	}
	ok := fast.Algo().Window() > slow.Algo().Window() && fast.Acked() > 2*slow.Acked()
	evidence := "per-subflow windows fit unequal paths (%.0f vs %.0f KB) — but only while the host picks paths; network path flips defeat it (see MPTCP flip test)"
	if coupling != baseline.CouplingNone {
		evidence = "coupled per-subflow windows fit unequal paths (%.0f vs %.0f KB); OLIA shifts load to the faster one"
	}
	return Table1Cell{
		Feature:  table1Features[3],
		Pass:     ok,
		Evidence: fmt.Sprintf(evidence, fast.Algo().Window()/1024, slow.Algo().Window()/1024),
	}
}
