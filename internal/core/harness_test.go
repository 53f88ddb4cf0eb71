package core

import (
	"time"

	"mtp/internal/sim"
	"mtp/internal/wire"
)

// testWorld wires endpoints together through an in-memory network with
// per-direction delay and programmable loss/mutation, driven by the
// discrete-event engine. It is the unit-test substitute for simnet.
type testWorld struct {
	eng   *sim.Engine
	peers map[string]*testEnv
}

type testEnv struct {
	world *testWorld
	name  string
	ep    *Endpoint

	delay time.Duration
	timer sim.Timer

	// drop decides whether an outgoing packet is lost; nil keeps all.
	drop func(pkt *Outbound) bool
	// trim decides whether an outgoing data packet loses its payload in the
	// network (NDP-style) instead of being dropped.
	trim func(pkt *Outbound) bool
	// mutate can rewrite an outgoing packet in flight (offload model).
	mutate func(pkt *Outbound)
	// stampECN, when non-nil, appends pathlet ECN feedback with the given
	// mark decision to outgoing data packets.
	stampECN func(pkt *Outbound) (wire.PathTC, bool, bool)
	// dup decides whether an outgoing packet is delivered twice.
	dup func(pkt *Outbound) bool
	// jitter, when non-nil, returns extra one-way delay for a packet copy,
	// letting tests reorder deliveries.
	jitter func(pkt *Outbound) time.Duration

	// bracket, when non-nil, makes the env deliver arrivals the way a batched
	// reader does: the first arrival opens the endpoint's batch bracket, which
	// closes after bracket() packets, after bracketWindow, or before the next
	// timer fires, whichever comes first. afterBracket runs after each close.
	bracket      func() int
	afterBracket func()
	open         int // packets the open bracket still admits; 0: closed
	closeAt      sim.Timer

	sent uint64
}

// bracketWindow bounds how long a test bracket stays open waiting for more
// arrivals: one recvmmsg drains what is queued, it does not wait.
const bracketWindow = 20 * time.Microsecond

// receive feeds one arriving packet into the endpoint, bracketed if asked.
func (te *testEnv) receive(in *Inbound) {
	if te.ep == nil {
		return
	}
	if te.bracket != nil && te.open == 0 {
		te.open = te.bracket()
		te.ep.BeginBatch()
		te.closeAt = te.world.eng.Schedule(bracketWindow, te.endBracket)
	}
	te.ep.OnPacket(in)
	if te.open == 1 {
		te.endBracket()
	} else if te.open > 1 {
		te.open--
	}
}

// endBracket closes the open bracket, if any.
func (te *testEnv) endBracket() {
	if te.open == 0 {
		return
	}
	te.open = 0
	te.closeAt.Stop()
	te.ep.EndBatch()
	if te.afterBracket != nil {
		te.afterBracket()
	}
}

func newWorld(seed int64) *testWorld {
	return &testWorld{eng: sim.NewEngine(seed), peers: make(map[string]*testEnv)}
}

func (w *testWorld) env(name string, delay time.Duration) *testEnv {
	te := &testEnv{world: w, name: name, delay: delay}
	w.peers[name] = te
	return te
}

// Now implements Env.
func (te *testEnv) Now() time.Duration { return te.world.eng.Now() }

// Output implements Env.
func (te *testEnv) Output(pkt *Outbound) {
	te.sent++
	if te.drop != nil && te.drop(pkt) {
		return
	}
	if te.mutate != nil {
		te.mutate(pkt)
	}
	if te.stampECN != nil && pkt.Hdr.Type == wire.TypeData {
		if p, marked, ok := te.stampECN(pkt); ok {
			pkt.Hdr.AddPathFeedback(wire.ECNFeedback(p, marked))
		}
	}
	dst := pkt.Dst.(string)
	peer := te.world.peers[dst]
	if peer == nil {
		return
	}
	copies := 1
	if te.dup != nil && te.dup(pkt) {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		in := &Inbound{From: te.name, Hdr: pkt.Hdr.Clone(), Data: append([]byte(nil), pkt.Data...)}
		if pkt.Data == nil {
			in.Data = nil
		}
		if te.trim != nil && pkt.Hdr.Type == wire.TypeData && te.trim(pkt) {
			in.Data = nil
			in.Trimmed = true
		}
		d := te.delay
		if te.jitter != nil {
			d += te.jitter(pkt)
		}
		te.world.eng.Schedule(d, func() { peer.receive(in) })
	}
}

// SetTimer implements Env.
func (te *testEnv) SetTimer(at time.Duration) {
	te.timer.Stop()
	if at <= 0 {
		return
	}
	d := at - te.world.eng.Now()
	te.timer = te.world.eng.Schedule(d, func() {
		if te.ep != nil {
			te.endBracket() // a Node's timer waits for the reader's batch lock
			te.ep.OnTimer(te.world.eng.Now())
		}
	})
}

// pair builds a connected endpoint pair (a at "a", b at "b").
func pair(seed int64, delay time.Duration, cfgA, cfgB Config) (*testWorld, *Endpoint, *Endpoint, *testEnv, *testEnv) {
	w := newWorld(seed)
	ea := w.env("a", delay)
	eb := w.env("b", delay)
	a := NewEndpoint(ea, cfgA)
	b := NewEndpoint(eb, cfgB)
	ea.ep = a
	eb.ep = b
	return w, a, b, ea, eb
}
