package tcpnet

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
)

// hugeBlock is a block of one cell more than a frame can carry; a sender
// refuses it before it writes a byte. The cells are never touched, so
// their pages are never faulted in.
type hugeBlock struct{}

func (hugeBlock) AppendBlock(dst []byte) ([]byte, []byte, error) {
	return dst, make([]byte, maxFrame+transport.CellBytes), nil
}

// halfAnswerNode accepts the handshake of every connection, then answers
// its first request with half a frame header and resets the connection.
func halfAnswerNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, err := readFrame(c); err != nil {
					return
				}
				if err := writeFrame(c, &frame{Op: opResp, Status: statusOK}); err != nil {
					return
				}
				if _, err := readFrame(c); err != nil {
					return
				}
				c.Write([]byte{0, 0, 0, 40, opResp, statusOK})
				c.(*net.TCPConn).SetLinger(0)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestErrorsAreMarkedAtTheirSource makes each error where it is really
// made, on the in-process fabric and on the TCP one, and holds retry.Do's
// verdict on it: a transient error takes the policy's four attempts, a
// terminal one a single attempt.
func TestErrorsAreMarkedAtTheirSource(t *testing.T) {
	meter := transport.Meter{Class: cluster.Control}
	echo := func(_ cluster.CoreID, req any) (any, error) { return req, nil }
	call := func(f *transport.Fabric) error {
		_, err := f.Endpoint(0).Call(1, "echo", echoPayload{Text: "ping"}, meter, 4, 4)
		return err
	}
	// local is an in-process fabric of two nodes of one core, echo served
	// on core 1.
	local := func(t *testing.T) *transport.Fabric {
		m, err := cluster.NewMachine(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		f := transport.NewFabric(m)
		f.Endpoint(1).RegisterHandler("echo", echo)
		return f
	}
	// wire is a driver and two serving nodes, echo served on core 1.
	wire := func(t *testing.T) (*transport.Fabric, *Backend, []*Server) {
		f, b, servers := newCluster(t, 2, 1)
		servers[1].fabric.Endpoint(1).RegisterHandler("echo", echo)
		return f, b, servers
	}
	never := transport.BufKey{Name: "never exposed"}
	for _, tc := range []struct {
		name      string
		transient bool
		// op sets the error up and returns the operation that makes it.
		op func(t *testing.T) func() error
	}{
		{"injected fault", true, func(t *testing.T) func() error {
			f := local(t)
			plan, err := transport.ParseFaultPlan([]byte(`{"rules": [{"op": "call", "mode": "error", "prob": 1}]}`))
			if err != nil {
				t.Fatal(err)
			}
			f.SetFaultPlan(plan)
			return func() error { return call(f) }
		}},
		{"patience, local", true, func(t *testing.T) func() error {
			f := local(t)
			return func() error {
				_, err := f.Read(0, 1, never, meter, 8, time.Millisecond, nil)
				return err
			}
		}},
		{"patience, over the wire", true, func(t *testing.T) func() error {
			f, b, _ := wire(t)
			b.cfg.ReadPatience = time.Millisecond
			return func() error {
				_, err := readOne(f.Endpoint(0), 1, never, meter, 8, 1)
				return err
			}
		}},
		{"refused dial", true, func(t *testing.T) func() error {
			f, b, _ := wire(t)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln.Close()
			b.UpdatePeer(1, ln.Addr().String())
			return func() error { return call(f) }
		}},
		{"reset mid-frame", true, func(t *testing.T) func() error {
			f, b, _ := wire(t)
			b.UpdatePeer(1, halfAnswerNode(t))
			return func() error { return call(f) }
		}},
		{"handshake refusal", false, func(t *testing.T) func() error {
			f, b, _ := wire(t)
			other, err := cluster.NewMachine(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve(transport.NewFabric(other), 1, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			b.UpdatePeer(1, srv.Addr())
			return func() error { return call(f) }
		}},
		{"closed endpoint, local", false, func(t *testing.T) func() error {
			f := local(t)
			f.Endpoint(1).Close()
			return func() error { return call(f) }
		}},
		{"closed endpoint, over the wire", false, func(t *testing.T) func() error {
			f, _, servers := wire(t)
			servers[1].fabric.Endpoint(1).Close()
			return func() error { return call(f) }
		}},
		{"frame too large", false, func(t *testing.T) func() error {
			f, _, _ := wire(t)
			return func() error { return f.Endpoint(1).Expose(transport.BufKey{Name: "huge"}, hugeBlock{}) }
		}},
		{"remote handler error", false, func(t *testing.T) func() error {
			f, _, servers := wire(t)
			servers[1].fabric.Endpoint(1).RegisterHandler("echo", func(cluster.CoreID, any) (any, error) {
				return nil, errors.New("handler refused")
			})
			return func() error { return call(f) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.op(t)
			attempts, err := retry.Do(retry.Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}, 1, nil,
				func(int) error { return op() })
			if err == nil {
				t.Fatal("the operation succeeded")
			}
			t.Log(err)
			if want := map[bool]int{true: 4, false: 1}[tc.transient]; attempts != want {
				t.Fatalf("%d attempts, want %d (transient %v): %v", attempts, want, tc.transient, err)
			}
		})
	}
}
