package dht

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// TestServeRejectsRankMismatch sends a DHT core, over real loopback
// sockets from a driver, the requests a malformed or hostile frame could carry: an
// insert, a remove and a query whose region has another rank than the
// curve, ones whose region is empty, and a query whose bound is negative. Each must come back as an ordinary
// error — not as a handler panic the fabric happened to recover — the table
// must be untouched, and the same connection must keep serving.
func TestServeRejectsRankMismatch(t *testing.T) {
	// The service's fabric is served node by node; a driver on a fabric of
	// its own sends the requests, as codsrun -backend=tcp does.
	s, f := service(t, 2, 1, 2, 4)
	peers := make(map[cluster.NodeID]string)
	for node := cluster.NodeID(0); node < 2; node++ {
		srv, err := tcpnet.Serve(f, node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		peers[node] = srv.Addr()
	}
	driver := transport.NewFabric(f.Machine())
	be, err := tcpnet.Connect(driver, peers, tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	driver.SetBackend(be)
	m := transport.Meter{Phase: "t", Class: cluster.Control}
	call := func(req any) (any, error) { return driver.Endpoint(0).Call(s.DHTCore(1), serviceName, req, m, 8, 8) }

	stored := Entry{Var: "u", Version: 1, Owner: 1, Region: geometry.NewBBox(geometry.Point{8, 8}, geometry.Point{16, 16})}
	if _, err := call(insertReq{stored}); err != nil {
		t.Fatal(err)
	}
	line := geometry.NewBBox(geometry.Point{8}, geometry.Point{16})
	flat := geometry.NewBBox(geometry.Point{8, 8}, geometry.Point{16, 8})
	for _, bad := range []struct {
		req  any
		want string
	}{
		{insertReq{Entry{Var: "u", Version: 1, Owner: 0, Region: line}}, "not of the curve's rank 2"},
		{removeReq{Entry{Var: "u", Version: 1, Owner: 1, Region: line}}, "not of the curve's rank 2"},
		{queryReq{Var: "u", Version: 1, Region: line}, "not of the curve's rank 2"},
		// A negative bound is refused by the node's decoder, before the core.
		{queryReq{Var: "u", Version: 1, Region: stored.Region, Bound: -1}, "not what its tag encodes"},
		// An empty box never leaves a sender: the box codec refuses it on the
		// way in, before the core sees the request.
		{queryReq{Var: "u", Version: 1, Region: flat}, "empty or inverted"},
	} {
		_, err := call(bad.req)
		if err == nil || !strings.Contains(err.Error(), bad.want) || strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%#v: err = %v, want an ordinary error saying %q", bad.req, err, bad.want)
		}
	}
	// In process the same requests reach the core undecoded, empty region
	// included.
	if _, err := s.serve(1, queryReq{Var: "u", Version: 1, Region: flat}); err == nil || !strings.Contains(err.Error(), "is empty or not") {
		t.Fatalf("empty region in process: err = %v", err)
	}
	if _, err := s.serve(1, queryReq{Var: "u", Version: 1, Region: stored.Region, Bound: -1}); err == nil || !strings.Contains(err.Error(), "bound -1 is negative") {
		t.Fatalf("negative bound in process: err = %v", err)
	}
	if n := s.TableSize(1); n != 1 {
		t.Fatalf("node 1 holds %d entries after the rejected requests, want the 1 stored before", n)
	}
	// The rejections left the pooled connection in protocol sync: the next
	// query costs exactly the bytes of the one after it, with no second
	// handshake in between.
	var cost [2]int64
	for i := range cost {
		before := be.WireStats().BytesOut
		resp, err := call(queryReq{Var: "u", Version: 1, Region: stored.Region})
		if err != nil || len(resp.(queryResp).Entries) != 1 {
			t.Fatalf("valid query after the rejections: %v, %v", resp, err)
		}
		cost[i] = be.WireStats().BytesOut - before
	}
	if cost[0] != cost[1] {
		t.Fatalf("the first valid query sent %d bytes, the next %d: it redialled instead of reusing the connection", cost[0], cost[1])
	}
}

// TestQueryBoundWire: a query's bound rides in the owner field of its one
// entry. Every bound an i32 holds from 0 up round-trips, the decoded query
// is the one sent, and the wire of a bounded query differs from a region
// query's only there. A negative owner field, each proper prefix and a
// trailing byte fail the decode.
func TestQueryBoundWire(t *testing.T) {
	region := geometry.NewBBox(geometry.Point{0, 8}, geometry.Point{8, 16})
	plain := queryReq{Var: "u", Version: 3, Region: region}.AppendWire(nil)
	const ownerAt = 1 + 4 + 4 + 1 + 8 // tag, count, name length, name, version
	for _, bound := range []int{0, 1, 1024, math.MaxInt32} {
		q := queryReq{Var: "u", Version: 3, Region: region, Bound: bound}
		wire := q.AppendWire(nil)
		if len(wire) != len(plain) || !bytes.Equal(wire[:ownerAt], plain[:ownerAt]) || !bytes.Equal(wire[ownerAt+4:], plain[ownerAt+4:]) {
			t.Fatalf("bound %d: wire %x differs from the region query's %x outside the owner field", bound, wire, plain)
		}
		got, err := transport.DecodePayload(wire)
		if err != nil || !reflect.DeepEqual(got, any(q)) {
			t.Fatalf("bound %d decodes to %#v, %v; want %#v", bound, got, err, q)
		}
		for n := 1; n < len(wire); n++ {
			if v, err := transport.DecodePayload(wire[:n]); err == nil {
				t.Fatalf("bound %d: %d-byte prefix decoded to %#v", bound, n, v)
			}
		}
		if v, err := transport.DecodePayload(append(wire, 0)); err == nil {
			t.Fatalf("bound %d: a trailing byte was accepted: %#v", bound, v)
		}
	}
	for _, owner := range []uint32{0x80000000, 0xFFFFFFFF} {
		wire := bytes.Clone(plain)
		binary.BigEndian.PutUint32(wire[ownerAt:], owner)
		if v, err := transport.DecodePayload(wire); err == nil {
			t.Fatalf("a query whose owner field is %#x decoded to %#v", owner, v)
		}
	}
}
