package tcpnet

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/transport"
)

// pooled returns the connections the driver holds idle for node.
func pooled(b *Backend, node cluster.NodeID) []*peerConn {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*peerConn(nil), b.pools[node]...)
}

// TestHandlerPanicKeepsConnServing: a handler runs on the serving
// connection's goroutine, so its panic must reach the driver as an
// ordinary error and leave that connection serving — the next call rides
// the same pooled connection and succeeds.
func TestHandlerPanicKeepsConnServing(t *testing.T) {
	f, b, servers := newCluster(t, 2, 1)
	ep := servers[1].fabric.Endpoint(1)
	ep.RegisterHandler("boom", func(cluster.CoreID, any) (any, error) { panic("table corrupted") })
	ep.RegisterHandler("echo", func(_ cluster.CoreID, req any) (any, error) { return req, nil })
	m := transport.Meter{Phase: "t", Class: cluster.Control}
	_, err := f.Endpoint(0).Call(1, "boom", echoPayload{Text: "x"}, m, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "panicked: table corrupted") {
		t.Fatalf("call of a panicking handler over TCP: %v, want the panic as an error", err)
	}
	first := pooled(b, 1)
	if len(first) != 1 {
		t.Fatalf("after the panicked call the driver pools %d connections to node 1, want 1", len(first))
	}
	resp, err := f.Endpoint(0).Call(1, "echo", echoPayload{Text: "ping"}, m, 1, 1)
	if err != nil || resp.(echoPayload).Text != "ping" {
		t.Fatalf("call after a handler panic = %v, %v", resp, err)
	}
	if now := pooled(b, 1); len(now) != 1 || now[0] != first[0] {
		t.Fatal("the call after a handler panic did not reuse the connection the panic was answered on")
	}
}

// TestReleaseDropsConnWithUnreadBytes: an exchange that leaves bytes in a
// connection's read buffer — here a second response it did not read —
// must not put the connection back in the pool, where the next exchange
// would take those bytes for its own response. The connection is closed,
// and the next call succeeds on a fresh dial, which is pooled.
func TestReleaseDropsConnWithUnreadBytes(t *testing.T) {
	_, b, _ := newCluster(t, 1, 1)
	key := transport.BufKey{Name: "absent", Version: 1}
	probe := &frame{Op: opExposed, Dst: 0, Name: key.Name, Version: int64(key.Version)}
	used, err := b.writeRequest(0, func(w io.Writer) error { return writeFrame(w, probe) })
	if err != nil {
		t.Fatal(err)
	}
	used.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(used, probe); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(used); err != nil {
		t.Fatal(err)
	}
	if _, err := used.r.Peek(1); err != nil { // the second response, buffered and unread
		t.Fatal(err)
	}
	b.release(0, used)
	if n := len(pooled(b, 0)); n != 0 {
		t.Fatalf("a connection with unread bytes went back to the pool (%d pooled)", n)
	}
	if _, err := used.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("writing to the dropped connection: %v, want net.ErrClosed", err)
	}
	if ok, err := b.Exposed(0, key); err != nil || ok {
		t.Fatalf("Exposed after the dropped connection = %v, %v; want false, nil", ok, err)
	}
	if now := pooled(b, 0); len(now) != 1 || now[0] == used {
		t.Fatalf("after the next call the pool holds %d connections (the dropped one: %v), want one fresh",
			len(now), len(now) == 1 && now[0] == used)
	}
}
