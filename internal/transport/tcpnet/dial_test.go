package tcpnet

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
)

// resettingNode listens on a loopback port and resets every connection it
// accepts before a byte is exchanged, counting them: each is one dial. It
// returns its address and the count.
func resettingNode(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dials := new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.(*net.TCPConn).SetLinger(0)
			c.Close()
		}
	}()
	return ln.Addr().String(), dials
}

// TestOneDialPerAttempt: the transport retries no dial. Against a node that
// resets every connection, one Call dials once, and a get under a policy
// of four attempts dials four times: the get's loop is the only retry.
func TestOneDialPerAttempt(t *testing.T) {
	t.Run("call", func(t *testing.T) {
		addr, dials := resettingNode(t)
		m, err := cluster.NewMachine(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Connect(transport.NewFabric(m), map[cluster.NodeID]string{0: addr}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := b.Call(0, 0, "echo", echoPayload{Text: "ping"}, transport.Meter{Class: cluster.Control}, 1, 1); err == nil {
			t.Fatal("a call to a node that resets every connection succeeded")
		}
		if n := dials.Load(); n != 1 {
			t.Fatalf("one call dialed %d times, want 1", n)
		}
	})
	t.Run("get", func(t *testing.T) {
		f, b, servers := newCluster(t, 2, 1)
		domain := geometry.BoxFromSize([]int{8})
		withSpaces(t, servers, domain)
		sp, err := cods.NewSpace(f, domain)
		if err != nil {
			t.Fatal(err)
		}
		const attempts = 4
		sp.SetRetryPolicy(retry.Policy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
		if err := sp.HandleAt(1, 1, "put").PutSequential("u", 0, domain, fillCells(domain)); err != nil {
			t.Fatal(err)
		}
		// The first get caches the schedule, so the second reads node 1
		// without a lookup.
		h := sp.HandleAt(0, 2, "get")
		if _, err := h.GetSequential("u", 0, domain); err != nil {
			t.Fatal(err)
		}
		addr, dials := resettingNode(t)
		b.UpdatePeer(1, addr)
		if _, err := h.GetSequential("u", 0, domain); err == nil {
			t.Fatal("a get from a node that resets every connection succeeded")
		}
		if n := dials.Load(); n != attempts {
			t.Fatalf("a get of %d attempts dialed %d times, want %d", attempts, n, attempts)
		}
	})
}

// countingProxy listens on a loopback port and forwards every connection it
// accepts to target, counting them: each is one dial. It returns its
// address and the count.
func countingProxy(t *testing.T, target string) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dials := new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	return ln.Addr().String(), dials
}

// TestWrongShapeDialsOnce: a node served by a process of another machine
// shape refuses the handshake, and no retry changes its answer. A get
// under a policy of four attempts dials it once and fails after one
// attempt, with the refusal.
func TestWrongShapeDialsOnce(t *testing.T) {
	f, b, servers := newCluster(t, 2, 1)
	domain := geometry.BoxFromSize([]int{8})
	withSpaces(t, servers, domain)
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetRetryPolicy(retry.Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
	if err := sp.HandleAt(1, 1, "put").PutSequential("u", 0, domain, fillCells(domain)); err != nil {
		t.Fatal(err)
	}
	// The first get caches the schedule, so the second reads node 1
	// without a lookup.
	h := sp.HandleAt(0, 2, "get")
	if _, err := h.GetSequential("u", 0, domain); err != nil {
		t.Fatal(err)
	}
	other, err := cluster.NewMachine(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(transport.NewFabric(other), 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, dials := countingProxy(t, srv.Addr())
	b.UpdatePeer(1, addr)
	_, err = h.GetSequential("u", 0, domain)
	var pe *cods.PullError
	if !errors.As(err, &pe) || !errors.Is(err, errHandshake) || pe.Attempts != 1 {
		t.Fatalf("get from a node of another shape: %v; want a *PullError after 1 attempt wrapping the handshake refusal", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("the get dialed %d times, want 1", n)
	}
}
