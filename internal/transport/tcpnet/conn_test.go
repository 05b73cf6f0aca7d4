package tcpnet

import (
	"errors"
	"fmt"
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

// TestPooledConnOutlivesIOTimeout: a connection pooled after a read and
// left idle past the I/O timeout serves the next exchange. The node arms
// the write deadline of every answer it writes, not only of the segment
// streams, so an answer behind a read does not meet that read's expired
// deadline. The timeout is long enough that only a stalled 16-byte
// exchange meets it, however loaded the host.
func TestPooledConnOutlivesIOTimeout(t *testing.T) {
	const timeout = 500 * time.Millisecond
	f, b, servers := newClusterWith(t, 2, 1, timeout)
	key := transport.BufKey{Name: "u", Version: 1}
	if err := servers[1].fabric.Endpoint(1).Expose(key, &blockPayload{Vals: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(f.Endpoint(0), 1, key, transport.Meter{Class: cluster.InterApp}, 16, 2); err != nil {
		t.Fatal(err)
	}
	read := pooled(b, 1)
	time.Sleep(timeout + timeout/2)
	if ok, err := b.Exposed(1, key); err != nil || !ok {
		t.Fatalf("Exposed on the idle pooled connection = %v, %v; want true, nil", ok, err)
	}
	if now := pooled(b, 1); len(read) != 1 || len(now) != 1 || now[0] != read[0] {
		t.Fatal("the probe did not ride the connection the read was pooled on")
	}
}

// TestExposedFalseBesideAnError pins Exposed to the status of its answer:
// statusOK is true, statusNotFound false without an error, and a refusal —
// statusErr, what a node answers for a core it does not serve, or
// statusClosed, which keeps transport.ErrEndpointClosed across the wire —
// is false beside its error.
func TestExposedFalseBesideAnError(t *testing.T) {
	m, err := cluster.NewMachine(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		status  uint8
		exposed bool
		want    error // nil: no error
	}{
		{statusOK, true, nil},
		{statusNotFound, false, nil},
		{statusErr, false, errors.New("core 0 is not served here")},
		{statusClosed, false, transport.ErrEndpointClosed},
	} {
		addr := stubNode(t, func(*frame) *frame {
			resp := &frame{Op: opResp, Status: tc.status}
			if tc.want != nil {
				resp.Err = tc.want.Error()
			}
			return resp
		})
		b, err := Connect(transport.NewFabric(m), map[cluster.NodeID]string{0: addr}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		ok, err := b.Exposed(0, transport.BufKey{Name: "u"})
		if ok != tc.exposed || (err == nil) != (tc.want == nil) || !strings.Contains(fmt.Sprint(err), fmt.Sprint(tc.want)) {
			t.Errorf("status %d: Exposed = %v, %v; want %v beside %v", tc.status, ok, err, tc.exposed, tc.want)
		}
		if tc.status == statusClosed && !errors.Is(err, transport.ErrEndpointClosed) {
			t.Errorf("status %d: %v does not wrap transport.ErrEndpointClosed", tc.status, err)
		}
	}
}
