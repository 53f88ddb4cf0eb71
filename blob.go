package mtp

import (
	"errors"
	"net"

	"mtp/internal/core"
)

// Blob is a reassembled bulk transfer delivered to Config.OnBlob.
type Blob struct {
	// From is the sender's address.
	From net.Addr
	// ID is the sender-assigned blob ID (unique per sender node).
	ID uint64
	// Data is the complete blob.
	Data []byte
}

// BlobOutgoing tracks one blob submitted with SendBlob: the Done channel
// closes when every chunk message is acknowledged.
type BlobOutgoing struct {
	ID     uint64
	Chunks int
	done   chan struct{}
	// remaining counts the chunks not yet acknowledged (guarded by Node.mu).
	remaining int
}

// Done is closed when the full blob is acknowledged.
func (b *BlobOutgoing) Done() <-chan struct{} { return b.done }

// blobState holds the node's lazily created blob machinery.
type blobState struct {
	sender *core.BlobSender
	reasm  *core.BlobReassembler
	// staged completed blobs, drained outside the node lock.
	inbox inbox[Blob]
}

// SendBlob transmits data as MTP's bulk-data mode: the blob is chopped into
// independent single-packet messages that the network may reorder,
// load-balance, and schedule freely; the peer's blob layer restores order.
// The peer must have a BlobPort configured and dstPort must match it.
func (n *Node) SendBlob(addr string, dstPort uint16, data []byte) (*BlobOutgoing, error) {
	if len(data) == 0 {
		return nil, errors.New("mtp: empty blob")
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("mtp: node closed")
	}
	key, err := n.sendKey(addr)
	if err != nil {
		n.mu.Unlock()
		return nil, err
	}
	if n.blob.sender == nil {
		n.blob.sender = core.NewBlobSender(n.ep)
	}
	id, msgs := n.blob.sender.SendBlob(key, dstPort, data, core.SendOptions{})
	out := &BlobOutgoing{ID: id, Chunks: len(msgs), remaining: len(msgs), done: make(chan struct{})}
	for _, m := range msgs {
		n.waiters[m.ID] = &Outgoing{ID: m.ID, blob: out}
	}
	n.unlock()
	return out, nil
}

// feedBlob routes a blob-port message into the reassembler. Called under mu.
func (n *Node) feedBlob(m *core.InMessage) {
	if n.blob.reasm == nil {
		n.blob.reasm = core.NewBlobReassembler(func(b *core.Blob) {
			n.blob.inbox.staged = append(n.blob.inbox.staged, Blob{From: n.fromAddr(b.From), ID: b.ID, Data: b.Data})
		})
	}
	// Malformed chunks are dropped; transport-level integrity already
	// guaranteed delivery of what the sender sent.
	_ = n.blob.reasm.Feed(m)
}
