package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mtp/internal/cc"
)

func TestBlobRoundTrip(t *testing.T) {
	var blobs []*Blob
	reasm := NewBlobReassembler(func(b *Blob) { blobs = append(blobs, b) })
	w, a, _, _, _ := pair(21, us(5),
		Config{LocalPort: 1, MSS: 1000},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) {
			if err := reasm.Feed(m); err != nil {
				t.Errorf("Feed: %v", err)
			}
		}},
	)
	bs := NewBlobSender(a)
	data := make([]byte, 57*1024+19)
	rand.New(rand.NewSource(9)).Read(data)
	id, msgs := bs.SendBlob("b", 2, data, SendOptions{})
	if len(msgs) != (len(data)+1000-blobFrameLen-1)/(1000-blobFrameLen) {
		t.Fatalf("chunks = %d", len(msgs))
	}
	w.eng.Run(time.Second)
	if len(blobs) != 1 {
		t.Fatalf("blobs = %d", len(blobs))
	}
	if blobs[0].ID != id || !bytes.Equal(blobs[0].Data, data) {
		t.Fatal("blob corrupt")
	}
	if len(reasm.pending) != 0 {
		t.Fatal("reassembler leaked state")
	}
}

func TestBlobWithLoss(t *testing.T) {
	var blobs []*Blob
	reasm := NewBlobReassembler(func(b *Blob) { blobs = append(blobs, b) })
	w, a, _, ea, _ := pair(22, us(5),
		Config{LocalPort: 1, MSS: 800, RTO: 300 * time.Microsecond},
		Config{LocalPort: 2, OnMessage: func(m *InMessage) { _ = reasm.Feed(m) }},
	)
	dropRand := rand.New(rand.NewSource(22))
	ea.drop = func(pkt *Outbound) bool { return dropRand.Intn(10) == 0 }
	bs := NewBlobSender(a)
	data := make([]byte, 30*1024)
	rand.New(rand.NewSource(23)).Read(data)
	bs.SendBlob("b", 2, data, SendOptions{})
	w.eng.Run(2 * time.Second)
	if len(blobs) != 1 {
		t.Fatalf("blobs = %d", len(blobs))
	}
	if !bytes.Equal(blobs[0].Data, data) {
		t.Fatal("blob corrupt under loss")
	}
}

func TestBlobFeedRejectsGarbage(t *testing.T) {
	reasm := NewBlobReassembler(nil)
	if err := reasm.Feed(&InMessage{MsgID: 1, Data: []byte("tiny")}); err == nil {
		t.Fatal("short frame accepted")
	}
	if err := reasm.Feed(&InMessage{MsgID: 2}); err == nil {
		t.Fatal("nil data accepted")
	}
	// seq >= total
	bad := make([]byte, blobFrameLen)
	bad[11] = 5 // seq = 5
	bad[15] = 2 // total = 2
	bad[31] = 1 // bytes = 1
	if err := reasm.Feed(&InMessage{MsgID: 3, Data: bad}); err == nil {
		t.Fatal("seq >= total accepted")
	}
}

func TestBlobDuplicateChunksIgnored(t *testing.T) {
	var blobs []*Blob
	reasm := NewBlobReassembler(func(b *Blob) { blobs = append(blobs, b) })
	// Hand-build two chunk messages and feed duplicates.
	w := newWorld(1)
	env := w.env("x", 0)
	ep := NewEndpoint(env, Config{LocalPort: 1, MSS: 100})
	env.ep = ep
	var sent []*Outbound
	// Capture chunks by replacing the world peer lookup: simpler to build
	// frames via BlobSender against a capture env.
	cap := &captureEnv{}
	ep2 := NewEndpoint(cap, Config{LocalPort: 1, MSS: 100, CCConfig: cc.Config{InitWindow: 1 << 30}})
	bs := NewBlobSender(ep2)
	data := make([]byte, 150)
	rand.New(rand.NewSource(3)).Read(data)
	bs.SendBlob("z", 2, data, SendOptions{})
	sent = cap.pkts
	if len(sent) < 2 {
		t.Fatalf("chunks = %d", len(sent))
	}
	for rep := 0; rep < 2; rep++ {
		for _, p := range sent {
			m := &InMessage{From: "z", MsgID: p.Hdr.MsgID, Data: p.Data, Size: len(p.Data)}
			if err := reasm.Feed(m); err != nil {
				t.Fatalf("Feed: %v", err)
			}
		}
	}
	if len(blobs) != 1 {
		t.Fatalf("blobs = %d (duplicates not ignored)", len(blobs))
	}
	if !bytes.Equal(blobs[0].Data, data) {
		t.Fatal("blob corrupt")
	}
}

// captureEnv records outputs without a network.
type captureEnv struct {
	pkts []*Outbound
	now  time.Duration
}

func (c *captureEnv) Now() time.Duration { return c.now }

// Output copies the Outbound and its header: the endpoint reuses both.
func (c *captureEnv) Output(p *Outbound) {
	q := *p
	q.Hdr = p.Hdr.Clone()
	c.pkts = append(c.pkts, &q)
}
func (c *captureEnv) SetTimer(at time.Duration) {}

// TestQuickBlobAnyOrder: chunks fed in any order reassemble correctly.
func TestQuickBlobAnyOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var blobs []*Blob
		reasm := NewBlobReassembler(func(b *Blob) { blobs = append(blobs, b) })
		cap := &captureEnv{}
		ep := NewEndpoint(cap, Config{LocalPort: 1, MSS: 64 + r.Intn(400), CCConfig: cc.Config{InitWindow: 1 << 30}})
		bs := NewBlobSender(ep)
		data := make([]byte, 1+r.Intn(5000))
		r.Read(data)
		bs.SendBlob("z", 2, data, SendOptions{})
		pkts := cap.pkts
		r.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
		for _, p := range pkts {
			m := &InMessage{From: "z", MsgID: p.Hdr.MsgID, Data: p.Data, Size: len(p.Data)}
			if err := reasm.Feed(m); err != nil {
				return false
			}
		}
		return len(blobs) == 1 && bytes.Equal(blobs[0].Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
