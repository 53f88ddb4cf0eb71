package mtp

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// blobSink collects the blobs a node's OnBlob delivers.
type blobSink struct {
	mu    sync.Mutex
	blobs []Blob
}

func (s *blobSink) add(b Blob) {
	s.mu.Lock()
	s.blobs = append(s.blobs, b)
	s.mu.Unlock()
}

// wait returns the blobs delivered once there are n of them or d has passed.
func (s *blobSink) wait(n int, d time.Duration) []Blob {
	for deadline := time.Now().Add(d); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		blobs := s.blobs
		s.mu.Unlock()
		if len(blobs) >= n || time.Now().After(deadline) {
			return blobs
		}
	}
}

func TestNodeBlobRoundTrip(t *testing.T) {
	eachNet(t, 11, func(t *testing.T, tn *testNet) {
		var sink blobSink
		na, nb, _ := tn.pair(t, Config{Port: 1, MSS: 700}, Config{Port: 2, BlobPort: 50, OnBlob: sink.add})

		data := make([]byte, 40<<10)
		rand.New(rand.NewSource(1)).Read(data)
		out, err := na.SendBlob(nb.Addr().String(), 50, data)
		if err != nil {
			t.Fatal(err)
		}
		if out.Chunks < 2 {
			t.Fatalf("chunks = %d", out.Chunks)
		}
		select {
		case <-out.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("blob never fully acknowledged")
		}
		blobs := sink.wait(1, 2*time.Second)
		if len(blobs) != 1 {
			t.Fatalf("blobs delivered: %d", len(blobs))
		}
		if blobs[0].ID != out.ID || !bytes.Equal(blobs[0].Data, data) {
			t.Fatal("blob corrupt")
		}
		if blobs[0].From.String() != na.Addr().String() {
			t.Fatalf("from = %v", blobs[0].From)
		}
	})
}

// TestNodeBlobOverUDP: blob mode over real sockets. SendBlob once handed the
// engine the raw address string, which the UDP datapath dropped on output,
// so no chunk ever left the node.
func TestNodeBlobOverUDP(t *testing.T) {
	tn := &testNet{}
	var sink blobSink
	na, nb, _ := tn.pair(t, Config{Port: 1}, Config{Port: 2, BlobPort: 50, OnBlob: sink.add})
	data := make([]byte, 40<<10)
	rand.New(rand.NewSource(4)).Read(data)
	out, err := na.SendBlob(nb.Addr().String(), 50, data)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-out.Done():
	case <-time.After(3 * time.Second):
		t.Fatalf("blob not acknowledged within 3s: %+v", na.Stats().EndpointStats)
	}
	if blobs := sink.wait(1, 3*time.Second); len(blobs) != 1 || !bytes.Equal(blobs[0].Data, data) {
		t.Fatalf("blobs delivered: %d", len(blobs))
	}
}

func TestNodeBlobWithLoss(t *testing.T) {
	eachNet(t, 12, func(t *testing.T, tn *testNet) {
		tn.loss = 0.05
		var sink blobSink
		na, nb, _ := tn.pair(t,
			Config{Port: 1, MSS: 600, RTO: 20 * time.Millisecond},
			Config{Port: 2, BlobPort: 50, OnBlob: sink.add})

		data := make([]byte, 20<<10)
		rand.New(rand.NewSource(2)).Read(data)
		out, err := na.SendBlob(nb.Addr().String(), 50, data)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-out.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("blob stuck under loss")
		}
		blobs := sink.wait(1, 3*time.Second)
		if len(blobs) != 1 || !bytes.Equal(blobs[0].Data, data) {
			t.Fatalf("blob delivery under loss failed (%d blobs)", len(blobs))
		}
	})
}

func TestNodeBlobValidation(t *testing.T) {
	mn := NewMemNetwork(13)
	pc, _ := mn.Listen("x")
	n, err := NewNode(pc, Config{Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendBlob("y", 50, nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	n.Close()
	if _, err := n.SendBlob("y", 50, []byte("x")); err == nil {
		t.Fatal("blob on closed node accepted")
	}
}

func TestNodeBlobAndMessagesCoexist(t *testing.T) {
	eachNet(t, 14, func(t *testing.T, tn *testNet) {
		var sink blobSink
		na, nb, col := tn.pair(t, Config{Port: 1}, Config{Port: 2, BlobPort: 50, OnBlob: sink.add})

		data := make([]byte, 10<<10)
		rand.New(rand.NewSource(3)).Read(data)
		ob, err := na.SendBlob(nb.Addr().String(), 50, data)
		if err != nil {
			t.Fatal(err)
		}
		om, err := na.Send(nb.Addr().String(), 2, []byte("plain message"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, om, 5*time.Second)
		select {
		case <-ob.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("blob stuck")
		}
		blobs := sink.wait(1, 2*time.Second)
		for deadline := time.Now().Add(2 * time.Second); col.len() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if len(blobs) != 1 || col.len() != 1 {
			t.Fatalf("blobs=%d msgs=%d", len(blobs), col.len())
		}
		if string(col.get(0).Data) != "plain message" || !bytes.Equal(blobs[0].Data, data) {
			t.Fatal("content mixed up between ports")
		}
	})
}

// TestNodeBlobUnackedLeaksNothing: a blob whose chunks are never
// acknowledged leaves no goroutine behind once the node is closed.
func TestNodeBlobUnackedLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	mn := NewMemNetwork(15)
	pc, err := mn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(pc, Config{Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.SendBlob("nobody", 50, make([]byte, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if out.Chunks < 2 {
		t.Fatalf("chunks = %d", out.Chunks)
	}
	n.Close()
	select {
	case <-out.Done():
		t.Fatal("blob acknowledged with no receiver")
	default:
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the node", runtime.NumGoroutine(), base)
		}
	}
}
