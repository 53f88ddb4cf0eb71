package core

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEndpointTransfer measures protocol-engine throughput through the
// in-memory harness: packetization, acking, reassembly and delivery of a
// 1 MB message per iteration.
func BenchmarkEndpointTransfer(b *testing.B) {
	delivered := 0
	w, a, _, _, _ := pair(99, time.Microsecond,
		Config{LocalPort: 1},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }},
	)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	deadline := w.eng.Now()
	for i := 0; i < b.N; i++ {
		a.SendSynthetic("b", 2, 1<<20, SendOptions{})
		deadline += 100 * time.Millisecond
		w.eng.Run(deadline)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkEndpointSmallMessages measures per-message overhead: 1 KB
// request-sized messages.
func BenchmarkEndpointSmallMessages(b *testing.B) {
	delivered := 0
	w, a, _, _, _ := pair(98, time.Microsecond,
		Config{LocalPort: 1},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }},
	)
	b.ReportAllocs()
	b.ResetTimer()
	deadline := w.eng.Now()
	for i := 0; i < b.N; i++ {
		a.SendSynthetic("b", 2, 1024, SendOptions{})
		deadline += time.Millisecond
		w.eng.Run(deadline)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkEndpointFanIn measures the receiver side of an incast: each
// iteration, 32 senders send one 1 KB message each to one endpoint, which
// keeps a peer record, a pending ACK and a dedup state for every sender.
func BenchmarkEndpointFanIn(b *testing.B) {
	const senders = 32
	delivered := 0
	w := newWorld(97)
	rx := w.env("rx", time.Microsecond)
	rx.ep = NewEndpoint(rx, Config{LocalPort: 2, OnMessage: func(m *InMessage) { delivered++ }})
	tx := make([]*Endpoint, senders)
	for i := range tx {
		te := w.env(fmt.Sprintf("s%d", i), time.Microsecond)
		te.ep = NewEndpoint(te, Config{LocalPort: 1})
		tx[i] = te.ep
	}
	b.ReportAllocs()
	b.ResetTimer()
	deadline := w.eng.Now()
	for i := 0; i < b.N; i++ {
		for _, ep := range tx {
			ep.SendSynthetic("rx", 2, 1024, SendOptions{})
		}
		deadline += time.Millisecond
		w.eng.Run(deadline)
	}
	if delivered != senders*b.N {
		b.Fatalf("delivered %d of %d", delivered, senders*b.N)
	}
}
