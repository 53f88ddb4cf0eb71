package mtp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
)

// The paper's first messaging mode is RPC: every request is one MTP message
// and every response is another, so in-network caches can answer requests,
// L7 balancers can steer them, and congestion control is shared across all
// of a client's calls. Call/Serve implement request/response correlation on
// top of Node messages.

// rpcFrameLen prefixes each RPC payload: magic (4) + correlation id (8) +
// flags (1). The magic keeps RPC frames from colliding with arbitrary user
// payloads sharing a node.
const rpcFrameLen = 4 + 8 + 1

// rpcMagic spells "MRPC".
const rpcMagic = 0x4D525043

const (
	rpcFlagRequest  = 0x01
	rpcFlagResponse = 0x02
	rpcFlagError    = 0x04
)

// ErrRPCRemote wraps an error string returned by the remote handler.
var ErrRPCRemote = errors.New("mtp: remote handler error")

// rpcState tracks outstanding calls on a node, under the node's mutex.
type rpcState struct {
	nextID  uint64
	pending map[uint64]chan rpcResult
}

type rpcResult struct {
	data []byte
	err  error
}

// Handler serves one RPC request and returns the response payload. Errors
// are transported back to the caller as ErrRPCRemote.
type Handler func(from string, req []byte) ([]byte, error)

// ServeRPC installs an RPC handler on port: every request message arriving
// there is answered with a correlated response message. Call ServeRPC before
// traffic arrives; it composes with Config.OnMessage, which keeps receiving
// non-RPC messages on other ports.
func (n *Node) ServeRPC(port uint16, h Handler) error {
	if h == nil {
		return errors.New("mtp: nil RPC handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rpcHandlers == nil {
		n.rpcHandlers = make(map[uint16]Handler)
	}
	if _, dup := n.rpcHandlers[port]; dup {
		return fmt.Errorf("mtp: RPC handler already bound to port %d", port)
	}
	n.rpcHandlers[port] = h
	return nil
}

// Call sends req to the RPC server at addr/port and waits for the response
// or ctx cancellation. Calls are independent MTP messages: concurrent calls
// share pathlet congestion state but nothing else.
func (n *Node) Call(ctx context.Context, addr string, port uint16, req []byte) ([]byte, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("mtp: node closed")
	}
	if n.rpc.pending == nil {
		n.rpc.pending = make(map[uint64]chan rpcResult)
	}
	n.rpc.nextID++
	id := n.rpc.nextID
	ch := make(chan rpcResult, 1)
	n.rpc.pending[id] = ch
	n.mu.Unlock()

	payload := make([]byte, rpcFrameLen+len(req))
	binary.BigEndian.PutUint32(payload, rpcMagic)
	binary.BigEndian.PutUint64(payload[4:], id)
	payload[12] = rpcFlagRequest
	copy(payload[rpcFrameLen:], req)

	if _, err := n.Send(addr, port, payload); err != nil {
		n.mu.Lock()
		delete(n.rpc.pending, id)
		n.mu.Unlock()
		return nil, err
	}
	select {
	case r := <-ch:
		return r.data, r.err
	case <-ctx.Done():
		n.mu.Lock()
		delete(n.rpc.pending, id)
		n.mu.Unlock()
		return nil, ctx.Err()
	}
}

// handleRPC intercepts RPC-framed messages. Returns true if consumed.
// Called WITHOUT the node lock (from the drain path).
func (n *Node) handleRPC(m Message) bool {
	if len(m.Data) < rpcFrameLen || binary.BigEndian.Uint32(m.Data) != rpcMagic {
		return false
	}
	id := binary.BigEndian.Uint64(m.Data[4:])
	flags := m.Data[12]
	body := m.Data[rpcFrameLen:]
	switch {
	case flags&rpcFlagRequest != 0:
		n.mu.Lock()
		h := n.rpcHandlers[m.DstPort]
		n.mu.Unlock()
		if h == nil {
			return false
		}
		resp, err := h(m.From.String(), body)
		out := make([]byte, rpcFrameLen, rpcFrameLen+len(resp))
		binary.BigEndian.PutUint32(out, rpcMagic)
		binary.BigEndian.PutUint64(out[4:], id)
		out[12] = rpcFlagResponse
		if err != nil {
			out[12] |= rpcFlagError
			out = append(out, []byte(err.Error())...)
		} else {
			out = append(out, resp...)
		}
		if _, serr := n.Send(m.From.String(), m.SrcPort, out); serr != nil {
			return true // request consumed; response undeliverable
		}
		return true
	case flags&rpcFlagResponse != 0:
		n.mu.Lock()
		ch := n.rpc.pending[id]
		delete(n.rpc.pending, id)
		n.mu.Unlock()
		if ch == nil {
			return true // late or duplicate response
		}
		if flags&rpcFlagError != 0 {
			ch <- rpcResult{err: fmt.Errorf("%w: %s", ErrRPCRemote, body)}
		} else {
			ch <- rpcResult{data: append([]byte(nil), body...)}
		}
		return true
	default:
		return false
	}
}
