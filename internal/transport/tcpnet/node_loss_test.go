package tcpnet

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/transport"
)

// TestMessagingSurvivesNodeLoss: in the driver + codsnode shape a message
// between two tasks never touches a node. A Recv on a core of node 1 is
// started, node 1's server goes away, and the matching Send still delivers
// — with the driver's wire counters unmoved by the pair.
func TestMessagingSurvivesNodeLoss(t *testing.T) {
	m, err := cluster.NewMachine(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	peers := make(map[cluster.NodeID]string)
	var nodes []*Server
	for node := cluster.NodeID(0); node < 2; node++ {
		be, err := Serve(transport.NewFabric(m), node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		peers[node] = be.Addr()
		nodes = append(nodes, be)
	}
	f := transport.NewFabric(m)
	driver, err := Connect(f, peers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.SetBackend(driver)
	defer driver.Close()

	before := driver.WireStats()
	const onNode1 = 2
	type received struct {
		msg transport.Message
		err error
	}
	got := make(chan received, 1)
	go func() {
		msg, err := f.Endpoint(onNode1).Recv(0, 7)
		got <- received{msg, err}
	}()
	nodes[1].Close()
	meter := transport.Meter{Phase: "t", Class: cluster.IntraApp, DstApp: 1}
	if err := f.Endpoint(0).Send(onNode1, 7, []byte("halo"), meter); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil || string(r.msg.Payload) != "halo" || r.msg.Src != 0 {
			t.Fatalf("delivered %+v, %v", r.msg, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the receive is still waiting: the message was lost with node 1")
	}
	if after := driver.WireStats(); after != before {
		t.Fatalf("a message between two tasks moved the wire counters: %+v -> %+v", before, after)
	}
	if n := f.MediumBytes(cluster.Network); n != 4 {
		t.Fatalf("the driver booked %d network bytes for the message, want 4", n)
	}
}

// TestCallTimesOutOnHungNode: a node that completes the handshake and then
// never answers fails a Call with a timeout within the I/O timeout — an
// error the retry layers act on, not ErrEndpointClosed and not a hang.
func TestCallTimesOutOnHungNode(t *testing.T) {
	addr := stubNode(t, func(*frame) *frame { return nil })
	m, err := cluster.NewMachine(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := Connect(transport.NewFabric(m), map[cluster.NodeID]string{0: addr}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 200 * time.Millisecond
	defer withIOTimeout(driver, timeout).Close()

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := driver.Call(0, 1, "echo", echoPayload{Text: "ping"}, transport.Meter{Class: cluster.Control}, 8, 8)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, transport.ErrEndpointClosed) {
			t.Fatalf("call against a hung node: %v; want a timeout", err)
		}
		if took := time.Since(start); took < timeout || took > timeout+5*time.Second {
			t.Fatalf("call returned after %s, want about the %s I/O timeout", took, timeout)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call still waiting on a node that never answers: its response read has no deadline")
	}
}

// flakyListener fails its first Accept calls with a transient error.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientError: an Accept that fails while the
// listener is open (EMFILE) is retried, so the node keeps serving; closing
// the backend still ends the loop.
func TestAcceptLoopSurvivesTransientError(t *testing.T) {
	m, err := cluster.NewMachine(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.failures.Store(2)
	b := serve(transport.NewFabric(m), 0, flaky, ioTimeout)

	driver, err := Connect(transport.NewFabric(m), map[cluster.NodeID]string{0: ln.Addr().String()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	if err := ping(driver, 0); err != nil {
		t.Fatalf("the listener died with its first failed accept: %v", err)
	}
	if left := flaky.failures.Load(); left >= 0 {
		t.Fatalf("the stub still has %d failures to hand out: the loop never retried", left+1)
	}
	b.Close() // returns only once acceptLoop has
}

// ping is one driver round trip to node on a machine of one core per node:
// an Exposed query for a buffer nobody staged, which a serving process
// answers without side effects.
func ping(b *Backend, node cluster.NodeID) error {
	_, err := b.Exposed(cluster.CoreID(node), transport.BufKey{Name: "ping"})
	return err
}

// stubNode is a node that completes the handshake and then answers each
// request with respond's frame, or swallows it when respond returns nil.
// It returns the stub's address.
func stubNode(t *testing.T, respond func(*frame) *frame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serve := func(c net.Conn) {
		defer c.Close()
		if _, err := readFrame(c); err != nil {
			return
		}
		if err := writeFrame(c, &frame{Op: opResp, Status: statusOK}); err != nil {
			return
		}
		for {
			fr, err := readFrame(c)
			if err != nil {
				return
			}
			if resp := respond(fr); resp != nil {
				if err := writeFrame(c, resp); err != nil {
					return
				}
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	return ln.Addr().String()
}
