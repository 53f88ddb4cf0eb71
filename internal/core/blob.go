package core

import (
	"encoding/binary"
	"fmt"
	"time"
)

// The paper describes two messaging modes: RPCs (one message per request)
// and bulk data, where "MTP can generate new messages for each packet" and
// "a layer beneath the application in a library or OS service is responsible
// for reassembling the blob". BlobSender and BlobReassembler are that layer:
// a blob is chopped into independent single-packet messages, each free to be
// load-balanced, reordered, and scheduled by the network, with ordering
// restored from a small framing header inside each payload.

// blobFrameLen is the framing header inside each chunk's payload:
// blobID(8) seq(4) total(4) offset(8) blobBytes(8).
const blobFrameLen = 8 + 4 + 4 + 8 + 8

// BlobSender splits blobs into single-packet messages over an Endpoint.
type BlobSender struct {
	ep     *Endpoint
	nextID uint64
}

// NewBlobSender returns a blob layer on top of ep.
func NewBlobSender(ep *Endpoint) *BlobSender {
	return &BlobSender{ep: ep, nextID: 1}
}

// SendBlob transmits data as independent single-packet messages and returns
// the blob ID and the chunk message handles (all must complete for the blob
// to be fully acknowledged).
func (b *BlobSender) SendBlob(dst Addr, dstPort uint16, data []byte, opts SendOptions) (uint64, []*OutMessage) {
	if len(data) == 0 {
		panic("core: empty blob")
	}
	chunk := b.ep.cfg.MSS - blobFrameLen
	if chunk <= 0 {
		panic("core: MSS too small for blob framing")
	}
	id := b.nextID
	b.nextID++
	total := (len(data) + chunk - 1) / chunk
	msgs := make([]*OutMessage, 0, total)
	for seq := 0; seq < total; seq++ {
		lo := seq * chunk
		hi := lo + chunk
		if hi > len(data) {
			hi = len(data)
		}
		payload := make([]byte, blobFrameLen+hi-lo)
		binary.BigEndian.PutUint64(payload[0:], id)
		binary.BigEndian.PutUint32(payload[8:], uint32(seq))
		binary.BigEndian.PutUint32(payload[12:], uint32(total))
		binary.BigEndian.PutUint64(payload[16:], uint64(lo))
		binary.BigEndian.PutUint64(payload[24:], uint64(len(data)))
		copy(payload[blobFrameLen:], data[lo:hi])
		msgs = append(msgs, b.ep.Send(dst, dstPort, payload, opts))
	}
	return id, msgs
}

// Blob is a fully reassembled blob.
type Blob struct {
	From     Addr
	ID       uint64
	Data     []byte
	Complete time.Duration
}

// BlobReassembler restores blobs from the single-packet messages produced by
// BlobSender. Feed it every InMessage; non-blob messages are rejected with
// an error so callers can multiplex.
type BlobReassembler struct {
	pending map[blobKey]*partialBlob
	// OnBlob receives completed blobs.
	OnBlob func(b *Blob)

	// done remembers recently completed blobs (bounded) so chunk
	// retransmissions arriving after completion do not re-deliver.
	done     map[blobKey]struct{}
	doneRing []blobKey
	donePos  int
}

type blobKey struct {
	from Addr
	id   uint64
}

type partialBlob struct {
	data []byte
	got  []bool
	n    int
}

// NewBlobReassembler returns an empty reassembler.
func NewBlobReassembler(onBlob func(*Blob)) *BlobReassembler {
	return &BlobReassembler{
		pending:  make(map[blobKey]*partialBlob),
		OnBlob:   onBlob,
		done:     make(map[blobKey]struct{}),
		doneRing: make([]blobKey, 1024),
	}
}

// Feed consumes one inbound message. It returns an error if the message is
// not a valid blob chunk; duplicate chunks are ignored.
func (r *BlobReassembler) Feed(m *InMessage) error {
	if m.Data == nil || len(m.Data) < blobFrameLen {
		return fmt.Errorf("core: message %d is not a blob chunk", m.MsgID)
	}
	id := binary.BigEndian.Uint64(m.Data[0:])
	seq := binary.BigEndian.Uint32(m.Data[8:])
	total := binary.BigEndian.Uint32(m.Data[12:])
	off := binary.BigEndian.Uint64(m.Data[16:])
	blobBytes := binary.BigEndian.Uint64(m.Data[24:])
	if total == 0 || seq >= total || blobBytes == 0 {
		return fmt.Errorf("core: malformed blob frame id=%d seq=%d total=%d", id, seq, total)
	}
	chunk := m.Data[blobFrameLen:]
	if off+uint64(len(chunk)) > blobBytes {
		return fmt.Errorf("core: blob chunk overflow id=%d seq=%d off=%d", id, seq, off)
	}
	key := blobKey{from: m.From, id: id}
	if _, ok := r.done[key]; ok {
		return nil // late duplicate of a completed blob
	}
	p := r.pending[key]
	if p == nil {
		p = &partialBlob{data: make([]byte, blobBytes), got: make([]bool, total)}
		r.pending[key] = p
	}
	if int(total) != len(p.got) {
		return fmt.Errorf("core: inconsistent blob chunk count id=%d: %d vs %d", id, total, len(p.got))
	}
	if p.got[seq] {
		return nil // duplicate chunk
	}
	copy(p.data[off:], chunk)
	p.got[seq] = true
	p.n++
	if p.n == int(total) {
		delete(r.pending, key)
		old := r.doneRing[r.donePos]
		delete(r.done, old)
		r.doneRing[r.donePos] = key
		r.donePos = (r.donePos + 1) % len(r.doneRing)
		r.done[key] = struct{}{}
		if r.OnBlob != nil {
			r.OnBlob(&Blob{From: m.From, ID: id, Data: p.data, Complete: m.Complete})
		}
	}
	return nil
}
