package mtp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// rpcPair starts a client and a server node and returns them with the
// server's address.
func rpcPair(t *testing.T, tn *testNet) (client, server *Node, addr string) {
	t.Helper()
	client = tn.node(t, "client", Config{Port: 9})
	server = tn.node(t, "server", Config{Port: 7})
	return client, server, server.Addr().String()
}

func TestRPCRoundTrip(t *testing.T) {
	eachNet(t, 1, func(t *testing.T, tn *testNet) {
		client, server, addr := rpcPair(t, tn)
		err := server.ServeRPC(7, func(from string, req []byte) ([]byte, error) {
			return []byte("echo:" + string(req) + " from " + from), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		resp, err := client.Call(ctx, addr, 7, []byte("hello"))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "echo:hello from "+client.Addr().String() {
			t.Fatalf("resp = %q", resp)
		}
	})
}

func TestRPCConcurrentCallsCorrelate(t *testing.T) {
	eachNet(t, 2, func(t *testing.T, tn *testNet) {
		client, server, addr := rpcPair(t, tn)
		if err := server.ServeRPC(7, func(_ string, req []byte) ([]byte, error) {
			return append([]byte("r-"), req...), nil
		}); err != nil {
			t.Fatal(err)
		}
		const n = 32
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				want := fmt.Sprintf("req-%d", i)
				resp, err := client.Call(ctx, addr, 7, []byte(want))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != "r-"+want {
					errs <- fmt.Errorf("call %d got %q", i, resp)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

func TestRPCRemoteError(t *testing.T) {
	client, server, addr := rpcPair(t, &testNet{mem: NewMemNetwork(3)})
	if err := server.ServeRPC(7, func(_ string, _ []byte) ([]byte, error) {
		return nil, errors.New("backend exploded")
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := client.Call(ctx, addr, 7, []byte("x"))
	if !errors.Is(err, ErrRPCRemote) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "backend exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCContextCancel(t *testing.T) {
	client, server, addr := rpcPair(t, &testNet{mem: NewMemNetwork(4)})
	block := make(chan struct{})
	if err := server.ServeRPC(7, func(_ string, _ []byte) ([]byte, error) {
		<-block
		return []byte("late"), nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, addr, 7, []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	close(block)
	// A late response after cancellation must not panic or leak.
	time.Sleep(50 * time.Millisecond)
}

func TestRPCHandlerValidation(t *testing.T) {
	_, server, _ := rpcPair(t, &testNet{mem: NewMemNetwork(5)})
	if err := server.ServeRPC(7, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	ok := func(string, []byte) ([]byte, error) { return nil, nil }
	if err := server.ServeRPC(7, ok); err != nil {
		t.Fatal(err)
	}
	if err := server.ServeRPC(7, ok); err == nil {
		t.Fatal("duplicate port binding accepted")
	}
}

func TestRPCCoexistsWithPlainMessages(t *testing.T) {
	eachNet(t, 6, func(t *testing.T, tn *testNet) {
		col := &collected{}
		client := tn.node(t, "client", Config{Port: 9})
		server := tn.node(t, "server", Config{Port: 7, OnMessage: col.add})
		addr := server.Addr().String()
		if err := server.ServeRPC(8, func(_ string, req []byte) ([]byte, error) {
			return req, nil
		}); err != nil {
			t.Fatal(err)
		}

		// A plain message to port 7 hits OnMessage; an RPC to port 8 does not.
		out, err := client.Send(addr, 7, []byte("plain payload"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, out, 5*time.Second)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := client.Call(ctx, addr, 8, []byte("rpc payload")); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(2 * time.Second); col.len() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if col.len() != 1 || string(col.get(0).Data) != "plain payload" {
			t.Fatalf("plain messages = %d", col.len())
		}
	})
}
