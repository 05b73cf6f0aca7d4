package tcpnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// echoPayload is a representative RPC payload, a by-value wire message
// like the dht and lock request types (registered under a tag of the
// tests' own); blockPayload is an exposed buffer that can be clipped but
// not shipped — a test exposes it on the owning node's fabric.
type echoPayload struct {
	Text string
	Vals []float64
}

const tagEcho uint8 = 0xE0

// AppendWire implements transport.WireMessage: u16 text length, the text,
// then the values as float64 bits to the end of the message.
func (p echoPayload) AppendWire(dst []byte) []byte {
	dst = append(dst, tagEcho)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Text)))
	dst = append(dst, p.Text...)
	for _, v := range p.Vals {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeEcho(b []byte) (transport.WireMessage, error) {
	if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
		return nil, errShortFrame
	}
	n := 2 + int(binary.BigEndian.Uint16(b))
	p := echoPayload{Text: string(b[2:n])}
	if b = b[n:]; len(b)%8 != 0 {
		return nil, errTrailingData
	}
	for ; len(b) > 0; b = b[8:] {
		p.Vals = append(p.Vals, math.Float64frombits(binary.BigEndian.Uint64(b)))
	}
	return p, nil
}

type blockPayload struct {
	Text string
	Vals []float64
}

// ClipRows implements transport.RegionClipper over the 1-D index range of
// Vals: one run, freshly encoded in the wire's cell format (big-endian
// float64 bits).
func (p *blockPayload) ClipRows(rows [][]byte, sub geometry.BBox) ([][]byte, error) {
	clip, ok := sub.Intersect(geometry.BoxFromSize([]int{len(p.Vals)}))
	if !ok {
		return rows, nil
	}
	var run []byte
	for _, v := range p.Vals[clip.Min[0]:clip.Max[0]] {
		run = binary.BigEndian.AppendUint64(run, math.Float64bits(v))
	}
	return append(rows, run), nil
}

// readOne issues a single-spec ReadMulti of n metered bytes for the cells
// [0, cells) of the buffer key exposed by owner and returns what was
// delivered: the owner-clipped cells off the wire.
func readOne(ep *transport.Endpoint, owner cluster.CoreID, key transport.BufKey, m transport.Meter, n int64, cells int) ([]float64, error) {
	var got []float64
	spec := transport.ReadSpec{Owner: owner, Key: key, Sub: geometry.BoxFromSize([]int{cells}), Bytes: n}
	err := ep.ReadMulti([]transport.ReadSpec{spec}, m, func(_ int, payload any, clipped []byte) error {
		if payload != nil {
			return errors.New("full payload delivered over the wire")
		}
		for ; len(clipped) >= 8; clipped = clipped[8:] {
			got = append(got, math.Float64frombits(binary.BigEndian.Uint64(clipped)))
		}
		return nil
	})
	return got, err
}

func init() {
	transport.RegisterMessage(tagEcho, echoPayload{}, decodeEcho)
}

// newCluster starts the shape codsrun -backend=tcp deploys, on loopback
// sockets: one Server per node of a nodes x cores machine, each on a
// fabric of its own, and a Connect driver installed on another. It
// returns the driver's fabric and backend and the servers in node order. A buffer that cannot cross the wire is exposed on its owning
// node's fabric (servers[k].fabric), where that node's operations meter.
func newCluster(t testing.TB, nodes, cores int) (*transport.Fabric, *Backend, []*Server) {
	t.Helper()
	return newClusterWith(t, nodes, cores, ioTimeout)
}

// newClusterWith is newCluster with the I/O timeout of the driver and of
// every node given.
func newClusterWith(t testing.TB, nodes, cores int, timeout time.Duration) (*transport.Fabric, *Backend, []*Server) {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	peers := make(map[cluster.NodeID]string)
	var servers []*Server
	for node := cluster.NodeID(0); int(node) < nodes; node++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := serve(transport.NewFabric(m), node, ln, timeout)
		t.Cleanup(func() { srv.Close() })
		peers[node] = srv.Addr()
		servers = append(servers, srv)
	}
	f := transport.NewFabric(m)
	b, err := Connect(f, peers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.SetBackend(withIOTimeout(b, timeout))
	t.Cleanup(func() { b.Close() })
	return f, b, servers
}

// withSpaces builds a CoDS space over domain on every serving node's
// fabric, registering the DHT handlers a driver-side space calls.
func withSpaces(tb testing.TB, servers []*Server, domain geometry.BBox) {
	tb.Helper()
	for _, srv := range servers {
		if _, err := cods.NewSpace(srv.fabric, domain); err != nil {
			tb.Fatal(err)
		}
	}
}

// v6OpMax is opMax as wire v6 had it, the largest it has ever been: the
// five ops v7 removed (depart, transfer, publish, cursor, stream-gc), the
// two v10 removed (peers, join), the two v11 removed (send, recv) and the
// one v14 removed (lease) leave the codes from today's opMax up to it
// unused, and the decoder must reject them as invalid ops.
const v6OpMax = 21

// v10MessageFrames are the two frames of the messaging plane wire v11
// removed, coded as a v10 peer sent them: ops 3 (send) and 4 (recv), today
// the codes of opCall and opExpose. They decode as those ops, under a
// payload kind neither accepts, so a handler that met one would refuse it
// (TestCallAcceptsOnlyMessages, TestExposeAcceptsOnlyRawBlocks); the
// handshake turns a v10 peer away long before.
func v10MessageFrames() []*frame {
	return []*frame{
		{Op: 3, Src: 0, Dst: 5, Tag: 42, MeterClass: uint8(cluster.InterApp), DstApp: 2,
			Phase: "couple:1", Payload: []byte("hello")},
		{Op: 4, Src: -1, Dst: 3, Tag: 7},
	}
}

func sampleFrames() []*frame {
	return []*frame{
		// A driver's hello declares the byte order of its expose cells in
		// Status (wire v16).
		{Op: opHello, Status: cellsLittleEndian, Dst: 1, Tag: helloMagic, Version: int64(wireVersion), Bytes: 2, Bytes2: 4},
		// An RPC carries its request as a tagged message (wire v9); the
		// response answers in the same kind.
		{Op: opCall, Kind: payloadMsg, Src: 1, Dst: 0, Name: "echo", Bytes: 64, Bytes2: 128,
			MeterClass: uint8(cluster.Control), Payload: echoPayload{Text: "ping", Vals: []float64{9}}.AppendWire(nil), Span: 7},
		{Op: opResp, Status: statusOK, Kind: payloadMsg, Payload: echoPayload{Text: "ping!"}.AppendWire(nil)},
		{Op: opSpans},
		{Op: opResp, Status: statusOK, Payload: []byte(`{"ev":"b","id":1,"name":"remote:readmulti:1"}` + "\n")},
		{Op: opResp, Status: statusErr, Err: "transport: endpoint closed"},
		{Op: opResp, Status: statusOK, Payload: bytes.Repeat([]byte{0xAB}, 1024)},
		{Op: opReadMulti, Src: 2, Dst: 6, MeterClass: uint8(cluster.InterApp), DstApp: 2,
			Phase: "couple:3", Payload: sampleSpecPayload(), Span: 1<<48 | 9},
		// The scatter-gather response header: Bytes announces the segment
		// count of the raw stream that follows the frame.
		{Op: opResp, Status: statusOK, Bytes: 2},
		// A read that carries the reader's patience, in nanoseconds, in Tag.
		{Op: opReadMulti, Src: 1, Dst: 4, MeterClass: uint8(cluster.InterApp), DstApp: 1,
			Phase: "couple:1", Payload: sampleSpecPayload(), Tag: uint64(2 * time.Second)},
		// Buffer-state and driver control ops. The expose carries its block
		// in the raw block codec, announced by the payload-kind field.
		{Op: opExpose, Kind: payloadBlock, Dst: 1, Name: "u|[0,8)", Version: 2, Payload: sampleBlockPayload()},
		{Op: opUnexpose, Dst: 1, Name: "u|[0,8)", Version: 2},
		{Op: opExposed, Dst: 1, Name: "u|[0,8)", Version: 2},
		{Op: opResp, Status: statusNotFound},
		// The one gob payload left: a node's answer to opStats.
		{Op: opStats},
		{Op: opResp, Status: statusOK, Kind: payloadGob, Payload: []byte{0x01, 0x02}},
		{Op: opShutdown},
	}
}

// TestEveryOpHandled walks the op table from both sides. Every op code but
// the handshake's and the response's has a row, every row exactly one
// server handler, and the row's op a representative frame in
// sampleFrames() (so the round-trip test and the fuzz corpus cover it)
// which the server dispatches to that handler — a renumbering cannot leave
// a hole that only the refusal of an unhandled op answers. The 1x1 machine
// makes every frame with a nonzero core fail its range check, so no sampled
// op can block. And every op the driver sends has a row: a stub node
// records each request the driver's methods send, and together they send
// the op of every row.
func TestEveryOpHandled(t *testing.T) {
	_, _, servers := newCluster(t, 1, 1)
	sampled := make(map[uint8]*frame)
	for _, fr := range sampleFrames() {
		if sampled[fr.Op] == nil {
			sampled[fr.Op] = fr
		}
	}
	for op, row := range ops {
		request := row.name != ""
		if want := op > int(opResp); request != want {
			t.Errorf("op %d: has a row = %v, want %v", op, request, want)
		}
		bound := 0
		for _, set := range []bool{handlers[op].handle != nil, handlers[op].stream != nil} {
			if set {
				bound++
			}
		}
		if want := map[bool]int{true: 1}[request]; bound != want {
			t.Errorf("op %d (%q): %d server handlers, want %d", op, row.name, bound, want)
		}
		if !request {
			continue
		}
		fr := sampled[uint8(op)]
		if fr == nil {
			t.Errorf("op %d has no frame in sampleFrames()", op)
			continue
		}
		if resp := answer(servers[0], fr); resp.Op != opResp || strings.Contains(resp.Err, "unhandled op") {
			t.Errorf("op %d answered with op %d, err %q; want a handler's response", op, resp.Op, resp.Err)
		}
	}

	var mu sync.Mutex
	sent := make(map[uint8]bool)
	addr := stubNode(t, func(fr *frame) *frame {
		mu.Lock()
		sent[fr.Op] = true
		mu.Unlock()
		return &frame{Op: opResp, Status: statusErr, Err: "stub"}
	})
	m, err := cluster.NewMachine(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Connect(transport.NewFabric(m), map[cluster.NodeID]string{0: addr}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	key := transport.BufKey{Name: "u"}
	region := geometry.BoxFromSize([]int{1})
	_, _ = b.Call(0, 0, "echo", echoPayload{Text: "ping"}, transport.Meter{}, 4, 4)
	_ = b.Expose(0, key, &cods.StoredObject{Region: region, Data: []float64{1}})
	_ = b.Unexpose(0, key)
	_, _ = b.Exposed(0, key)
	_ = b.ReadMulti(0, []transport.ReadSpec{{Owner: 0, Key: key, Sub: region, Bytes: 8}}, transport.Meter{},
		func(int, any, []byte) error { return nil })
	_ = b.MergeRemoteStats()
	_ = b.DrainRemoteSpans(nil)
	b.ShutdownPeers()
	mu.Lock()
	defer mu.Unlock()
	for op, row := range ops {
		if request := row.name != ""; sent[uint8(op)] != request {
			t.Errorf("op %d (%q): the driver sends it = %v, has a row = %v", op, row.name, sent[uint8(op)], request)
		}
	}
}

// TestDriverRefusesAnswerOfWrongKind: an answer whose payload kind is not
// its op row's is refused before any decoder reads it. A node that
// completes the handshake and then answers opStats with a message payload
// and opCall with none makes MergeRemoteStats and Call fail with a terminal
// error naming the op and both kinds, and the driver merges nothing.
func TestDriverRefusesAnswerOfWrongKind(t *testing.T) {
	addr := stubNode(t, func(fr *frame) *frame {
		switch fr.Op {
		case opStats:
			return &frame{Op: opResp, Kind: payloadMsg, Payload: echoPayload{Text: "not an account"}.AppendWire(nil)}
		case opCall:
			return &frame{Op: opResp, Payload: echoPayload{Text: "pong"}.AppendWire(nil)}
		}
		return &frame{Op: opResp, Status: statusErr, Err: "unexpected op"}
	})
	m, err := cluster.NewMachine(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	b, err := Connect(f, map[cluster.NodeID]string{0: addr}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	terminal := func(what string, err error, want string) {
		t.Helper()
		var tr interface{ Transient() bool }
		switch {
		case err == nil:
			t.Fatalf("%s accepted an answer of the wrong payload kind", what)
		case errors.As(err, &tr):
			t.Fatalf("%s: %v is transient, want terminal", what, err)
		case !strings.Contains(err.Error(), want):
			t.Fatalf("%s: err = %v, want it to say %q", what, err, want)
		}
	}
	err = b.MergeRemoteStats()
	terminal("MergeRemoteStats", err, fmt.Sprintf("stats answered with payload kind %d, want %d", payloadMsg, payloadGob))
	if accts, netOps := b.NodeAccounts(), f.MediumOps(cluster.Network); len(accts) != 0 || netOps != 0 {
		t.Fatalf("a refused answer merged %d accounts and %d network ops", len(accts), netOps)
	}
	_, err = b.Call(0, 0, "echo", echoPayload{Text: "ping"}, transport.Meter{Class: cluster.Control}, 4, 4)
	terminal("Call", err, fmt.Sprintf("call answered with payload kind %d, want %d", payloadRaw, payloadMsg))
}

// answer dispatches one request on s as a served connection would and
// returns the frame that answers it: the whole answer of a one-frame op,
// the header frame of a read.
func answer(s *Server, fr *frame) *frame {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		s.dispatch(server, fr)
		server.Close()
	}()
	resp, err := readFrame(client)
	if err != nil {
		return &frame{Status: statusErr, Err: err.Error()}
	}
	return resp
}

// TestServingNodeRefusesForeignCore pins "a codsnode serves, it never
// dials": a Server for node 0, which knows no peer address, answers
// an opExpose, opCall or opReadMulti aimed at a core of node 1 with an error
// naming the core — it does not forward, dial or hang — and the connection
// stays in protocol sync for the next request.
func TestServingNodeRefusesForeignCore(t *testing.T) {
	_, _, ask := dialServingNode(t)
	const foreign = 3 // node 1's second core
	specs, err := appendReadSpecs(nil, []transport.ReadSpec{{Owner: foreign, Key: transport.BufKey{Name: "u"},
		Sub: geometry.NewBBox(geometry.Point{0}, geometry.Point{1}), Bytes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range []*frame{
		{Op: opExpose, Kind: payloadBlock, Dst: foreign, Name: "u", Payload: sampleBlockPayload()},
		{Op: opCall, Kind: payloadMsg, Src: 0, Dst: foreign, Name: "echo", Payload: echoPayload{Text: "ping"}.AppendWire(nil)},
		{Op: opReadMulti, Src: 0, Dst: foreign, Payload: specs},
	} {
		resp := ask(fr)
		if want := "core 3 is not served here"; resp.Status != statusErr || resp.Err != want {
			t.Errorf("op %d at a foreign core: status %d, err %q; want statusErr, %q", fr.Op, resp.Status, resp.Err, want)
		}
	}
	if resp := ask(&frame{Op: opSpans}); resp.Status != statusOK {
		t.Fatalf("connection unusable after the refusals: status %d, err %q", resp.Status, resp.Err)
	}
}

// dialServingNode starts a Server for node 0 of a 2x2 machine — the
// codsnode configuration — and returns its fabric, the server and a
// function that sends one request frame on a connection that completed the
// handshake and returns the response.
func dialServingNode(t *testing.T) (*transport.Fabric, *Server, func(*frame) *frame) {
	t.Helper()
	m, err := cluster.NewMachine(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	b, err := Serve(f, 0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ask := func(fr *frame) *frame {
		t.Helper()
		if err := writeFrame(c, fr); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(c)
		if err != nil {
			t.Fatalf("op %d: connection lost: %v", fr.Op, err)
		}
		return resp
	}
	hello := &frame{Op: opHello, Dst: 0, Tag: helloMagic, Version: int64(wireVersion), Bytes: 2, Bytes2: 2}
	if resp := ask(hello); resp.Status != statusOK {
		t.Fatalf("handshake refused: %q", resp.Err)
	}
	return f, b, ask
}

// TestServingNodeRefusesNegativeMeteredSize: metered sizes arrive from the
// wire and the metrics they are recorded in panic on a negative one, so a
// serving node answers a read spec or a call that declares one with an
// ordinary error — the buffer is exposed and the handler registered, so
// nothing else refuses the request first — and the connection stays in
// protocol sync.
func TestServingNodeRefusesNegativeMeteredSize(t *testing.T) {
	f, _, ask := dialServingNode(t)
	if resp := ask(&frame{Op: opExpose, Kind: payloadBlock, Dst: 1, Name: "u", Payload: sampleBlockPayload()}); resp.Status != statusOK {
		t.Fatalf("expose refused: %q", resp.Err)
	}
	f.Endpoint(1).RegisterHandler("echo", func(_ cluster.CoreID, req any) (any, error) { return req, nil })
	specs, err := appendReadSpecs(nil, []transport.ReadSpec{{Owner: 1, Key: transport.BufKey{Name: "u"},
		Sub: geometry.NewBBox(geometry.Point{0}, geometry.Point{1}), Bytes: -8}})
	if err != nil {
		t.Fatal(err)
	}
	call := echoPayload{Text: "ping"}.AppendWire(nil)
	for _, fr := range []*frame{
		{Op: opReadMulti, Src: 0, Dst: 1, Payload: specs},
		{Op: opCall, Kind: payloadMsg, Src: 0, Dst: 1, Name: "echo", Bytes: -1, Bytes2: 8, Payload: call},
		{Op: opCall, Kind: payloadMsg, Src: 0, Dst: 1, Name: "echo", Bytes: 8, Bytes2: -1, Payload: call},
	} {
		if resp := ask(fr); resp.Status != statusErr || !strings.Contains(resp.Err, "negative metered size") {
			t.Errorf("op %d with a negative size: status %d, err %q; want a refusal", fr.Op, resp.Status, resp.Err)
		}
	}
	if resp := ask(&frame{Op: opSpans}); resp.Status != statusOK {
		t.Fatalf("connection unusable after the refusals: status %d, err %q", resp.Status, resp.Err)
	}
}

// sampleBlockPayload is the wire form of a representative exposed block
// with big-endian cells: what a sender that declared big-endian cells
// sends, and what a node keeps whatever the sender declared.
func sampleBlockPayload() []byte {
	region := geometry.NewBBox(geometry.Point{0}, geometry.Point{8})
	return blockWire(region, fillCells(region), binary.BigEndian)
}

// blockWire is the body of an expose of a block of cells over region, its
// cells in the given byte order.
func blockWire(region geometry.BBox, cells []float64, order binary.AppendByteOrder) []byte {
	wire := geometry.AppendBox(nil, region)
	for _, v := range cells {
		wire = order.AppendUint64(wire, math.Float64bits(v))
	}
	return wire
}

// sampleSpecPayload is the encoded spec list of a representative
// scatter-gather request: two sub-boxes of one variable on one peer.
func sampleSpecPayload() []byte {
	specs := []transport.ReadSpec{
		{Owner: 6, Key: transport.BufKey{Name: "temperature|[0,8)x[0,8)", Version: 3},
			Sub: geometry.NewBBox(geometry.Point{1, 2}, geometry.Point{5, 6}), Bytes: 128},
		{Owner: 7, Key: transport.BufKey{Name: "temperature|[8,16)x[0,8)", Version: 3},
			Sub: geometry.NewBBox(geometry.Point{8, 0}, geometry.Point{9, 8}), Bytes: 64},
	}
	buf, err := appendReadSpecs(nil, specs)
	if err != nil {
		panic(err)
	}
	return buf
}

func TestWireRoundTrip(t *testing.T) {
	for _, fr := range sampleFrames() {
		buf, err := marshalFrame(fr)
		if err != nil {
			t.Fatalf("marshal %+v: %v", fr, err)
		}
		got, err := decodeFrame(buf[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", fr, err)
		}
		if !reflect.DeepEqual(fr, got) {
			t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", fr, got)
		}
	}
}

func TestWireStrictDecode(t *testing.T) {
	buf, err := marshalFrame(sampleFrames()[1])
	if err != nil {
		t.Fatal(err)
	}
	body := buf[4:]
	// Every proper prefix of a valid body must fail, and fail as a short
	// frame (or invalid header field), never succeed or panic.
	for n := 0; n < len(body); n++ {
		if _, err := decodeFrame(body[:n]); err == nil {
			t.Fatalf("decode accepted %d-byte prefix of a %d-byte body", n, len(body))
		}
	}
	// Trailing garbage after a valid body is rejected.
	if _, err := decodeFrame(append(append([]byte(nil), body...), 0x00)); !errors.Is(err, errTrailingData) {
		t.Fatalf("trailing byte: got %v, want errTrailingData", err)
	}
	// Invalid op and meter class are rejected.
	bad := append([]byte(nil), body...)
	bad[0] = 0
	if _, err := decodeFrame(bad); err == nil {
		t.Fatal("decode accepted op 0")
	}
	// opMax and everything above it, up to the largest code any wire
	// version has used.
	for op := opMax; op < v6OpMax; op++ {
		bad[0] = op
		if _, err := decodeFrame(bad); err == nil {
			t.Fatalf("decode accepted op %d (opMax %d)", op, opMax)
		}
	}
	bad[0] = opCall
	bad[2] = uint8(cluster.Control) + 1
	if _, err := decodeFrame(bad); err == nil {
		t.Fatal("decode accepted out-of-range meter class")
	}
	bad[2] = 0
	bad[3] = payloadKindMax
	if _, err := decodeFrame(bad); err == nil {
		t.Fatal("decode accepted out-of-range payload kind")
	}
}

// TestServerReadsExposeStrictly holds a serving node's read of an expose
// frame — strings through the read buffer, the payload into a body from
// the free list, its cells a piece at a time — to the strict decoder: a
// valid frame reads as decodeFrame decodes it, into a recycled body when
// the list holds one of its size; the same block with little-endian cells,
// read for a sender that declared them, reads the same; a stream cut
// anywhere fails; and a frame whose payload length disagrees with its body
// length is a short frame or trailing data.
func TestServerReadsExposeStrictly(t *testing.T) {
	fr := &frame{Op: opExpose, Kind: payloadBlock, Dst: 1, Name: "u|[0,8)", Version: 3, Phase: "put", Payload: sampleBlockPayload()}
	buf, err := marshalFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeFrame(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	pool := newBodies()
	recycled := make([]byte, len(fr.Payload))
	pool.give(recycled)
	got, err := readFrameInto(bytes.NewReader(buf), pool, false)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, %v; want %+v", got, err, want)
	}
	if &got.Payload[0] != &recycled[0] {
		t.Fatal("the payload was not read into the recycled body of its size")
	}
	region := geometry.NewBBox(geometry.Point{0}, geometry.Point{8})
	little := *fr
	little.Payload = blockWire(region, fillCells(region), binary.LittleEndian)
	lbuf, err := marshalFrame(&little)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readFrameInto(bytes.NewReader(lbuf), newBodies(), true); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read little-endian cells as %+v, %v; want %+v", got, err, want)
	}
	for n := 0; n < len(buf); n++ {
		for _, swap := range []bool{false, true} {
			if _, err := readFrameInto(bytes.NewReader(buf[:n]), newBodies(), swap); err == nil {
				t.Fatalf("read accepted a %d-byte prefix of a %d-byte frame", n, len(buf))
			}
		}
	}
	// The payload length field is the last 4 bytes before the payload.
	at := len(buf) - len(fr.Payload) - 4
	for delta, wantErr := range map[int]error{+1: errShortFrame, -1: errTrailingData} {
		bad := append([]byte(nil), buf...)
		binary.BigEndian.PutUint32(bad[at:], uint32(len(fr.Payload)+delta))
		if _, err := readFrameInto(bytes.NewReader(bad), newBodies(), false); !errors.Is(err, wantErr) {
			t.Errorf("payload length %+d: err = %v, want %v", delta, err, wantErr)
		}
	}
}

// TestCellOrdersServeSameSegments: a node serves a block sent by a driver
// that declared little-endian cells and the same block sent by one that
// declared big-endian cells — each a crafted hello and expose body, the
// block 1.5 pieces (exposeChunk) long — as byte-identical segments, whole
// and clipped, and those are the big-endian cells ClipRegion spells out. A
// cell order the node does not know is refused at the handshake.
func TestCellOrdersServeSameSegments(t *testing.T) {
	f, _, servers := newCluster(t, 1, 1)
	region := geometry.BoxFromSize([]int{48, 1024}) // 384 KiB of cells
	cells := fillCells(region)
	hello := func(order uint8) (net.Conn, *frame) {
		c, err := net.Dial("tcp", servers[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := writeFrame(c, &frame{Op: opHello, Status: order, Tag: helloMagic, Version: int64(wireVersion), Bytes: 1, Bytes2: 1}); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		return c, resp
	}
	for order, enc := range map[uint8]binary.AppendByteOrder{cellsBigEndian: binary.BigEndian, cellsLittleEndian: binary.LittleEndian} {
		c, resp := hello(order)
		if resp.Status != statusOK {
			t.Fatalf("cell order %d refused: %q", order, resp.Err)
		}
		name := fmt.Sprint("blk", order)
		if err := writeFrame(c, &frame{Op: opExpose, Kind: payloadBlock, Name: name, Payload: blockWire(region, cells, enc)}); err != nil {
			t.Fatal(err)
		}
		if resp, err := readFrame(c); err != nil || resp.Status != statusOK {
			t.Fatalf("expose in cell order %d: %+v, %v", order, resp, err)
		}
	}
	obj := &cods.StoredObject{Region: region, Data: cells}
	for _, sub := range []geometry.BBox{region, geometry.NewBBox(geometry.Point{3, 5}, geometry.Point{41, 1000})} {
		want, err := obj.ClipRegion(nil, sub)
		if err != nil {
			t.Fatal(err)
		}
		var specs []transport.ReadSpec
		for _, name := range []string{fmt.Sprint("blk", cellsBigEndian), fmt.Sprint("blk", cellsLittleEndian)} {
			specs = append(specs, transport.ReadSpec{Key: transport.BufKey{Name: name}, Sub: sub, Bytes: int64(len(want))})
		}
		err = f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, seg []byte) error {
			if !bytes.Equal(seg, want) {
				return fmt.Errorf("%s served other bytes for %v than ClipRegion", specs[i].Key.Name, sub)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, resp := hello(cellsLittleEndian + 1); resp.Status != statusErr || !strings.Contains(resp.Err, "cell order") {
		t.Fatalf("an unknown cell order answered status %d, err %q; want a refusal naming the cell order", resp.Status, resp.Err)
	}
}

// TestExposeAcceptsOnlyRawBlocks pins the replace-not-fork rule of the
// block codec: an opExpose whose payload-kind field says anything but "raw
// block" — a gob-encoded block from a v7-minded sender, or the same bytes
// sent as opaque or as a message — is refused before any codec runs, and
// nothing gets exposed.
func TestExposeAcceptsOnlyRawBlocks(t *testing.T) {
	_, b, servers := newCluster(t, 1, 1)
	srv := servers[0]
	region := geometry.NewBBox(geometry.Point{0}, geometry.Point{8})
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(&cods.StoredObject{Region: region, Data: fillCells(region)}); err != nil {
		t.Fatal(err)
	}
	key := transport.BufKey{Name: "u|[0,8)", Version: 2}
	for kind, payload := range map[uint8][]byte{payloadGob: gobbed.Bytes(), payloadRaw: sampleBlockPayload(), payloadMsg: sampleBlockPayload()} {
		resp := answer(srv, &frame{Op: opExpose, Kind: kind, Name: key.Name, Version: int64(key.Version), Payload: payload})
		if resp.Status != statusErr || !strings.Contains(resp.Err, "payload kind") {
			t.Fatalf("expose with payload kind %d answered status %d, err %q; want a payload-kind rejection",
				kind, resp.Status, resp.Err)
		}
	}
	if ok, err := b.Exposed(0, key); err != nil || ok {
		t.Fatalf("a rejected expose left the buffer published (exposed=%v, err=%v)", ok, err)
	}
	resp := answer(srv, &frame{Op: opExpose, Kind: payloadBlock, Name: key.Name, Version: int64(key.Version), Payload: sampleBlockPayload()})
	if resp.Status != statusOK {
		t.Fatalf("raw-block expose answered status %d, err %q", resp.Status, resp.Err)
	}
	// A payload the backend cannot ship is refused on the sending side.
	if err := b.Expose(0, transport.BufKey{Name: "opaque"}, &blockPayload{Vals: []float64{1}}); err == nil ||
		!strings.Contains(err.Error(), "BlockPayload") {
		t.Fatalf("exposing a non-block payload over the wire: err = %v, want a BlockPayload rejection", err)
	}
}

// TestCallAcceptsOnlyMessages is the same rule for RPCs (wire v9): an
// opCall whose payload-kind field says anything but "tagged message" — the
// gob encoding a v8 sender would ship, or a well-formed message mislabelled
// as opaque bytes or as a block — is refused before a decoder or the
// handler runs; the same bytes under the right kind reach the handler, and
// a payload whose tag nobody registered is an ordinary error.
func TestCallAcceptsOnlyMessages(t *testing.T) {
	_, _, servers := newCluster(t, 1, 1)
	b := servers[0]
	calls := 0
	b.fabric.Endpoint(0).RegisterHandler("echo", func(_ cluster.CoreID, req any) (any, error) {
		calls++
		return req, nil
	})
	req := echoPayload{Text: "ping", Vals: []float64{9}}
	var gobbed bytes.Buffer
	var asAny any = req
	gob.Register(req)
	if err := gob.NewEncoder(&gobbed).Encode(&asAny); err != nil {
		t.Fatal(err)
	}
	wire := req.AppendWire(nil)
	for kind, payload := range map[uint8][]byte{payloadGob: gobbed.Bytes(), payloadRaw: wire, payloadBlock: wire} {
		resp := answer(b, &frame{Op: opCall, Kind: kind, Name: "echo", Payload: payload})
		if resp.Status != statusErr || !strings.Contains(resp.Err, "payload kind") {
			t.Fatalf("call with payload kind %d answered status %d, err %q; want a payload-kind rejection",
				kind, resp.Status, resp.Err)
		}
	}
	if calls != 0 {
		t.Fatalf("a refused call reached the handler %d times", calls)
	}
	resp := answer(b, &frame{Op: opCall, Kind: payloadMsg, Name: "echo", Payload: wire})
	if resp.Status != statusOK || resp.Kind != payloadMsg || !bytes.Equal(resp.Payload, wire) || calls != 1 {
		t.Fatalf("message call answered status %d kind %d err %q after %d handler calls", resp.Status, resp.Kind, resp.Err, calls)
	}
	resp = answer(b, &frame{Op: opCall, Kind: payloadMsg, Name: "echo", Payload: []byte{0xEF, 1, 2}})
	if resp.Status != statusErr || !strings.Contains(resp.Err, "unknown message tag 239") || calls != 1 {
		t.Fatalf("unregistered tag answered status %d, err %q", resp.Status, resp.Err)
	}
}

// TestLoopbackSendRecv: a message between cores of two nodes is delivered
// and metered as a network flow by a driver, and puts nothing on the wire —
// mailboxes live in the process that runs the tasks.
func TestLoopbackSendRecv(t *testing.T) {
	f, b, _ := newCluster(t, 2, 2)
	m := transport.Meter{Phase: "test", Class: cluster.InterApp, DstApp: 2}
	done := make(chan transport.Message, 1)
	go func() {
		msg, err := f.Endpoint(2).Recv(0, 42)
		if err != nil {
			t.Error(err)
		}
		done <- msg
	}()
	payload := []byte("across nodes")
	if err := f.Endpoint(0).Send(2, 42, payload, m); err != nil {
		t.Fatal(err)
	}
	msg := <-done
	if string(msg.Payload) != string(payload) || msg.Src != 0 || msg.Tag != 42 {
		t.Fatalf("got %+v", msg)
	}
	if got := f.MediumBytes(cluster.Network); got != int64(len(payload)) {
		t.Errorf("cross-node send recorded %d network bytes, want %d", got, len(payload))
	}
	if ws := b.WireStats(); ws.BytesOut != 0 || ws.BytesIn != 0 {
		t.Errorf("a message crossed the wire: %+v", ws)
	}
}

// TestLoopbackExposeReadCall: a driver reads a buffer its owning node
// exposed, asks whether it is exposed, withdraws it and calls a handler,
// each over the wire; the node that served the read meters it.
func TestLoopbackExposeReadCall(t *testing.T) {
	f, b, servers := newCluster(t, 2, 2)
	m := transport.Meter{Phase: "test", Class: cluster.InterApp, DstApp: 2}
	key := transport.BufKey{Name: "var", Version: 1}
	owner, reader := servers[0].fabric.Endpoint(1), f.Endpoint(3)

	want := &blockPayload{Text: "block", Vals: []float64{1, 2, 3}}
	if err := owner.Expose(key, want); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.Exposed(1, key); err != nil || !ok {
		t.Fatalf("Exposed over the wire after Expose = %v, %v", ok, err)
	}
	got, err := readOne(reader, 1, key, m, 24, len(want.Vals))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Vals, got) {
		t.Fatalf("read %v, want %v", got, want.Vals)
	}
	if n := servers[0].fabric.MediumBytes(cluster.Network); n != 24 {
		t.Fatalf("cross-node read metered %d network bytes on its owner, want 24", n)
	}
	// Unexpose over the wire withdraws the buffer; withdrawing it again is
	// no error.
	if err := b.Unexpose(1, key); err != nil {
		t.Fatalf("Unexpose of an exposed buffer: %v", err)
	}
	if ok, err := b.Exposed(1, key); err != nil || ok {
		t.Fatalf("Exposed over the wire after Unexpose = %v, %v", ok, err)
	}
	if err := b.Unexpose(1, key); err != nil {
		t.Fatalf("second Unexpose: %v", err)
	}

	servers[0].fabric.Endpoint(0).RegisterHandler("echo", func(src cluster.CoreID, req any) (any, error) {
		in := req.(echoPayload)
		return echoPayload{Text: in.Text + "!", Vals: in.Vals}, nil
	})
	cm := transport.Meter{Phase: "test", Class: cluster.Control, DstApp: 2}
	resp, err := f.Endpoint(2).Call(0, "echo", echoPayload{Text: "ping", Vals: []float64{9}}, cm, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if out := resp.(echoPayload); out.Text != "ping!" || out.Vals[0] != 9 {
		t.Fatalf("call returned %+v", out)
	}
}

func TestClosedEndpointErrorCrossesWire(t *testing.T) {
	f, _, servers := newCluster(t, 2, 1)
	servers[1].fabric.Endpoint(1).Close()
	_, err := f.Endpoint(0).Call(1, "echo", echoPayload{Text: "x"}, transport.Meter{Class: cluster.Control}, 1, 1)
	if !errors.Is(err, transport.ErrEndpointClosed) {
		t.Fatalf("got %v, want ErrEndpointClosed through the wire", err)
	}
}

func TestHandshakeRejectsShapeMismatch(t *testing.T) {
	_, _, servers := newCluster(t, 2, 2)
	mOther, err := cluster.NewMachine(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	fOther := transport.NewFabric(mOther)
	client, err := Connect(fOther, map[cluster.NodeID]string{
		0: servers[0].Addr(), 1: servers[1].Addr(), 2: servers[0].Addr(),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer withIOTimeout(client, 2*time.Second).Close()
	if _, err := client.dial(0); !errors.Is(err, errHandshake) {
		t.Fatalf("got %v, want handshake rejection", err)
	}
}

// TestStatsMergeAcrossProcessShapes: a driver meters nothing a node
// served; MergeRemoteStats folds each node's accounting into the driver's
// fabric once, and keeps one account per node, in node order.
func TestStatsMergeAcrossProcessShapes(t *testing.T) {
	f, b, servers := newCluster(t, 2, 2)
	m := transport.Meter{Phase: "t", Class: cluster.Control, DstApp: 2}
	servers[1].fabric.Endpoint(2).RegisterHandler("echo", func(_ cluster.CoreID, req any) (any, error) { return req, nil })
	if _, err := f.Endpoint(0).Call(2, "echo", echoPayload{Text: "abcd"}, m, 4, 4); err != nil {
		t.Fatal(err)
	}
	if got, served := f.MediumBytes(cluster.Network), servers[1].fabric.MediumBytes(cluster.Network); got != 0 || served != 8 {
		t.Fatalf("cross-node call metered %d network bytes on the driver, %d on its node; want 0 and 8", got, served)
	}
	if err := b.MergeRemoteStats(); err != nil {
		t.Fatal(err)
	}
	if got := f.MediumBytes(cluster.Network); got != 8 {
		t.Fatalf("driver holds %d network bytes after MergeRemoteStats, want the node's 8", got)
	}
	accts := b.NodeAccounts()
	if len(accts) != 2 || accts[0].Node != 0 || accts[1].Node != 1 || accts[1].NetBytes != 8 ||
		accts[1].Addr != servers[1].Addr() {
		t.Fatalf("node accounts %+v; want node 0, then node 1 at %s with 8 network bytes", accts, servers[1].Addr())
	}
}

// TestMergeRemoteStatsCountsOnce: a node ships its whole account on every
// fan-out, and the driver merges only what the node recorded since the
// last one. A second merge with no traffic between leaves the driver's
// fabric, metrics and flows where the first left them; a node at a new
// address (a replacement) counts in full. Each process has a machine of
// its own here, as a codsnode has (newCluster's share one).
func TestMergeRemoteStatsCountsOnce(t *testing.T) {
	echo := func(_ cluster.CoreID, req any) (any, error) { return req, nil }
	serve := func(node cluster.NodeID) string {
		m, err := cluster.NewMachine(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(transport.NewFabric(m), node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srv.fabric.Endpoint(1).RegisterHandler("echo", echo)
		return srv.Addr()
	}
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	b, err := Connect(f, map[cluster.NodeID]string{0: serve(0), 1: serve(1)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.SetBackend(b)
	t.Cleanup(func() { b.Close() })
	call := func() {
		t.Helper()
		meter := transport.Meter{Phase: "t", Class: cluster.Control, DstApp: 2}
		if _, err := f.Endpoint(0).Call(1, "echo", echoPayload{Text: "abcd"}, meter, 4, 4); err != nil {
			t.Fatal(err)
		}
	}
	merged := func() [3]int64 {
		t.Helper()
		if err := b.MergeRemoteStats(); err != nil {
			t.Fatal(err)
		}
		return [3]int64{f.MediumBytes(cluster.Network), m.Metrics().Bytes(cluster.Control, cluster.Network), int64(len(m.Metrics().Flows("")))}
	}
	call()
	once := merged()
	if once != [3]int64{8, 8, 2} {
		t.Fatalf("one merge left the driver's (fabric bytes, metrics bytes, flows) at %v, want the node's [8 8 2]", once)
	}
	if twice := merged(); twice != once {
		t.Fatalf("a second merge with no traffic moved the driver's (fabric bytes, metrics bytes, flows) from %v to %v", once, twice)
	}
	b.UpdatePeer(1, serve(1))
	call()
	if got := merged(); got != [3]int64{16, 16, 4} {
		t.Fatalf("merging the replacement's call left the driver at %v, want [16 16 4]", got)
	}
}

// TestMergeRemoteStatsAllOrNothing: a fan-out that fails at its second
// node merges nothing, not even the first node's account, so the driver's
// fabric and metrics do not move and a later fan-out counts no node twice.
func TestMergeRemoteStatsAllOrNothing(t *testing.T) {
	f, b, servers := newCluster(t, 2, 1)
	servers[0].fabric.Endpoint(0).RegisterHandler("echo", func(_ cluster.CoreID, req any) (any, error) { return req, nil })
	m := transport.Meter{Phase: "t", Class: cluster.Control, DstApp: 2}
	if _, err := f.Endpoint(1).Call(0, "echo", echoPayload{Text: "abcd"}, m, 4, 4); err != nil {
		t.Fatal(err)
	}
	metered := func() (int64, int64) {
		return f.MediumBytes(cluster.Network), f.Machine().Metrics().Bytes(cluster.Control, cluster.Network)
	}
	medium, metrics := metered()
	if metrics == 0 {
		t.Fatal("node 0 metered nothing: the test would not see a merge")
	}
	servers[1].Close()
	if err := b.MergeRemoteStats(); err == nil {
		t.Fatal("MergeRemoteStats with node 1 closed succeeded")
	}
	if m2, mt2 := metered(); m2 != medium || mt2 != metrics {
		t.Fatalf("a failed MergeRemoteStats moved the driver's network bytes %d -> %d and metrics %d -> %d",
			medium, m2, metrics, mt2)
	}
}
