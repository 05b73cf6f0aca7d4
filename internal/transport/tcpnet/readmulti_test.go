package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// fillCells produces deterministic row-major data for a region.
func fillCells(b geometry.BBox) []float64 {
	data := make([]float64, b.Volume())
	i := 0
	b.Each(func(p geometry.Point) {
		v := 0.0
		for _, x := range p {
			v = v*1000 + float64(x)
		}
		data[i] = v
		i++
	})
	return data
}

// TestReadMultiClipsOnOwner drives the scatter-gather op end to end over
// loopback sockets: the owner must clip each requested sub-box out of its
// exposed block and stream exactly those cells — including the edge cases
// of an empty intersection, a single cell and the full block.
func TestReadMultiClipsOnOwner(t *testing.T) {
	f, _, _ := newCluster(t, 2, 1)
	m := transport.Meter{Phase: "t", Class: cluster.InterApp, DstApp: 2}
	region := geometry.NewBBox(geometry.Point{4, 4}, geometry.Point{8, 8})
	obj := &cods.StoredObject{Region: region, Data: fillCells(region)}
	key := transport.BufKey{Name: "v", Version: 1}
	if err := f.Endpoint(1).Expose(key, obj); err != nil {
		t.Fatal(err)
	}
	subs := []geometry.BBox{
		geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4}), // empty intersection
		geometry.NewBBox(geometry.Point{4, 4}, geometry.Point{5, 5}), // single cell
		region, // full block
		geometry.NewBBox(geometry.Point{5, 5}, geometry.Point{7, 8}), // strided interior
	}
	specs := make([]transport.ReadSpec, len(subs))
	for i, sub := range subs {
		clip, _ := sub.Intersect(region)
		specs[i] = transport.ReadSpec{Owner: 1, Key: key, Sub: sub, Bytes: clip.Volume() * cods.ElemSize}
	}
	got := make([][]byte, len(subs))
	err := f.Endpoint(0).ReadMulti(specs, m, func(i int, payload any, clipped []byte) error {
		if payload != nil {
			t.Errorf("segment %d delivered a full payload over the wire", i)
		}
		got[i] = append([]byte(nil), clipped...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		clip, ok := sub.Intersect(region)
		if !ok {
			if len(got[i]) != 0 {
				t.Fatalf("segment %d: empty intersection carried %d bytes", i, len(got[i]))
			}
			continue
		}
		want, err := obj.ClipRegion(nil, sub)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[i]) != string(want) {
			t.Fatalf("segment %d (%v): clipped bytes differ from owner-side reference", i, clip)
		}
		if int64(len(got[i])) != clip.Volume()*cods.ElemSize {
			t.Fatalf("segment %d: %d bytes, want %d", i, len(got[i]), clip.Volume()*cods.ElemSize)
		}
	}
}

// TestBatchedPullFrameCount is the frame-count probe of the acceptance
// criteria: a multi-transfer pull over the TCP backend issues
// exactly one scatter-gather request per owning node, and the bytes its
// servers clip equal the schedule-predicted byte count. It is also the
// serial reference of the pull executor: over loopback the four nodes'
// requests run concurrently, on an in-process fabric the same get runs
// transfer by transfer on the calling goroutine, and the two must return
// the same cells and meter the same bytes and ops in every class and
// medium — the wire changes how the bytes move, not which.
func TestBatchedPullFrameCount(t *testing.T) {
	// An inset get region: its first and last sub-boxes are smaller than
	// their stored blocks, so clipping must shrink the wire traffic.
	get := geometry.NewBBox(geometry.Point{3}, geometry.Point{37})
	domain := geometry.BoxFromSize([]int{40})
	// metered sums, per medium, the bytes and ops counted by the fabrics
	// that execute a get.
	metered := func(fabrics []*transport.Fabric) map[cluster.Medium][2]int64 {
		out := make(map[cluster.Medium][2]int64)
		for _, md := range []cluster.Medium{cluster.SharedMemory, cluster.Network} {
			for _, mf := range fabrics {
				out[md] = [2]int64{out[md][0] + mf.MediumBytes(md), out[md][1] + mf.MediumOps(md)}
			}
		}
		return out
	}
	// stagedGet stages five producer blocks — one on the reader's node,
	// two on node 1, one each on nodes 2 and 3 — retrieves get from core
	// 0, and returns the cells with what the fabrics in meter counted
	// during the get alone.
	stagedGet := func(f *transport.Fabric, meter []*transport.Fabric) ([]float64, map[cluster.Medium][2]int64) {
		t.Helper()
		sp, err := cods.NewSpace(f, domain)
		if err != nil {
			t.Fatal(err)
		}
		for i, core := range []cluster.CoreID{1, 2, 3, 4, 6} {
			blk := geometry.NewBBox(geometry.Point{8 * i}, geometry.Point{8 * (i + 1)})
			h := sp.HandleAt(core, 1, "put")
			if err := h.PutSequential("v", 0, blk, fillCells(blk)); err != nil {
				t.Fatal(err)
			}
		}
		before := metered(meter)
		f.Machine().Metrics().Reset()
		out, err := sp.HandleAt(0, 2, "get").GetSequential("v", 0, get)
		if err != nil {
			t.Fatal(err)
		}
		during := metered(meter)
		for md, c := range during {
			during[md] = [2]int64{c[0] - before[md][0], c[1] - before[md][1]}
		}
		return out, during
	}

	// A fresh cluster: the puts issue no read, so every read counter below
	// is the get's.
	f, b, servers := newCluster(t, 4, 2)
	withSpaces(t, servers, domain)
	var nodes []*transport.Fabric
	for _, srv := range servers {
		nodes = append(nodes, srv.fabric)
	}
	out, tcpMetered := stagedGet(f, nodes)
	want := fillCells(get)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, out[i], want[i])
		}
	}
	if n := b.WireStats().ReadMultiRequests; n != 4 {
		t.Errorf("batched pull issued %d scatter-gather requests, want 4 (one per owning node)", n)
	}
	var segments, segBytes int64
	for _, srv := range servers {
		segments += srv.WireStats().SegmentsServed
		segBytes += srv.WireStats().SegmentBytesServed
	}
	if predicted := get.Volume() * cods.ElemSize; segBytes != predicted {
		t.Errorf("served %d clipped bytes, want the schedule-predicted %d", segBytes, predicted)
	}
	if segments != 5 {
		t.Errorf("served %d segments, want 5", segments)
	}

	m, err := cluster.NewMachine(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	inproc := transport.NewFabric(m)
	ref, inMetered := stagedGet(inproc, []*transport.Fabric{inproc})
	for i := range ref {
		if out[i] != ref[i] {
			t.Fatalf("cell %d = %v over TCP, %v in process", i, out[i], ref[i])
		}
	}
	for _, md := range []cluster.Medium{cluster.SharedMemory, cluster.Network} {
		tcpBytes, tcpOps := tcpMetered[md][0], tcpMetered[md][1]
		inBytes, inOps := inMetered[md][0], inMetered[md][1]
		if tcpBytes != inBytes {
			t.Errorf("%v: %d bytes metered over TCP, %d in process", md, tcpBytes, inBytes)
		}
		if tcpOps != inOps {
			t.Errorf("%v: %d ops metered over TCP, %d in process", md, tcpOps, inOps)
		}
		for _, cl := range []cluster.Class{cluster.InterApp, cluster.IntraApp, cluster.Control} {
			if tcp, in := f.Machine().Metrics().Bytes(cl, md), m.Metrics().Bytes(cl, md); tcp != in {
				t.Errorf("%v over %v: %d bytes metered over TCP, %d in process", cl, md, tcp, in)
			}
		}
	}
}

// writeCounter counts the Write calls made on a connection.
type writeCounter struct {
	net.Conn
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Conn.Write(p)
}

// TestSmallSegmentsShareOneWrite pins the coalescing rule of the
// scatter-gather server: the response frame and every run of segments that
// fit maxInlineBody leave in one write, an error segment behind them
// included; the gather buffer is flushed when the next segment would take
// it past maxPooledBuf and before a segment too large to inline (which
// still leaves on its own, uncopied) — and whatever the grouping, the
// client reads the same stream: the announced count, then the segments in
// order with the owner-clipped bytes.
func TestSmallSegmentsShareOneWrite(t *testing.T) {
	_, be, servers := newCluster(t, 1, 1)
	b := servers[0]
	f := b.fabric
	be.cfg.ReadPatience = 20 * time.Millisecond
	m := transport.Meter{Phase: "t", Class: cluster.InterApp, DstApp: 2}
	row := func(i, cells int) (transport.ReadSpec, []byte) {
		region := geometry.NewBBox(geometry.Point{i, 0}, geometry.Point{i + 1, cells})
		obj := &cods.StoredObject{Region: region, Data: fillCells(region)}
		key := transport.BufKey{Name: fmt.Sprintf("row%d", i), Version: cells}
		if !f.Exposed(0, key) {
			if err := be.Expose(0, key, obj); err != nil {
				t.Fatal(err)
			}
		}
		want, err := obj.ClipRegion(nil, region)
		if err != nil {
			t.Fatal(err)
		}
		return transport.ReadSpec{Owner: 0, Key: key, Sub: region, Bytes: int64(len(want))}, want
	}
	const small, full, large = 32, maxInlineBody / cods.ElemSize, maxInlineBody/cods.ElemSize + 1
	missing := transport.ReadSpec{Owner: 0, Key: transport.BufKey{Name: "never exposed"}, Sub: geometry.BoxFromSize([]int{1, 1}), Bytes: 8}
	for _, tc := range []struct {
		name   string
		cells  []int // per segment; 0 = the buffer nobody exposes
		writes int
		sync   bool
	}{
		{"eight small segments", []int{small, small, small, small, small, small, small, small}, 1, true},
		// Header + three 16 KiB segments fit 64 KiB, the fourth does not.
		{"five full-size inline segments", []int{full, full, full, full, full}, 2, true},
		// A pipe has no writev: the large segment's header and body are two
		// writes there, one vectored write on a socket.
		{"small, large, small", []int{small, large, small}, 1 + 2 + 1, true},
		{"small, then a failing read", []int{small, 0}, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := make([]transport.ReadSpec, len(tc.cells))
			want := make([][]byte, len(tc.cells))
			for i, cells := range tc.cells {
				if specs[i] = missing; cells > 0 {
					specs[i], want[i] = row(i, cells)
				}
			}
			payload, err := appendReadSpecs(nil, specs)
			if err != nil {
				t.Fatal(err)
			}
			// The request as the driver sends it, its patience in Tag.
			fr := &frame{Op: opReadMulti, Tag: uint64(be.cfg.ReadPatience), Payload: payload}
			meterFrame(fr, m)
			client, server := net.Pipe()
			defer client.Close()
			counted := &writeCounter{Conn: server}
			done := make(chan bool, 1)
			go func() {
				done <- b.serveReadMulti(counted, fr)
				server.Close()
			}()
			resp, err := readFrame(client)
			if err != nil || resp.Status != statusOK || int(resp.Bytes) != len(specs) {
				t.Fatalf("response frame %+v, %v; want OK announcing %d segments", resp, err, len(specs))
			}
			for i := range specs {
				status, index, length, err := readSegmentHeader(client)
				if err != nil || index != i {
					t.Fatalf("segment %d: header says index %d, %v", i, index, err)
				}
				body := make([]byte, length)
				if _, err := io.ReadFull(client, body); err != nil {
					t.Fatal(err)
				}
				if want[i] == nil {
					if status != statusPatience || !strings.Contains(string(body), "patience") {
						t.Fatalf("segment %d: status %d, body %q; want the read's error", i, status, body)
					}
					continue
				}
				if status != statusOK || !bytes.Equal(body, want[i]) {
					t.Fatalf("segment %d: status %d, %d bytes; want the %d clipped bytes", i, status, len(body), len(want[i]))
				}
			}
			if inSync := <-done; inSync != tc.sync {
				t.Fatalf("serveReadMulti reported in-sync=%v, want %v", inSync, tc.sync)
			}
			if counted.writes != tc.writes {
				t.Fatalf("%d writes for segments of %v cells, want %d", counted.writes, tc.cells, tc.writes)
			}
		})
	}
}

// TestHandshakeRejectsOldWireVersion proves the old-peer policy of DESIGN
// §5f: a client speaking any earlier wire version — the first, v4
// (membership, no streaming), v7 (the last to gob-encode exposed blocks),
// v8 (the last to gob-encode RPC payloads), v9 (the last with a
// node-to-node plane: a peer-table op and a join op), v10 (the last whose
// nodes held mailboxes: a send op and a recv op), v11 (the last whose DHT
// cores answered dump and clear messages), v14 (the last whose nodes
// set their own read patience) and v15 (the last whose expose cells were
// always big-endian), all spelled out so a later bump cannot quietly re-admit them —
// is turned away at the handshake with an error naming both versions; there is no per-op fallback or mixed-version mode that could
// strand it mid-stream.
func TestHandshakeRejectsOldWireVersion(t *testing.T) {
	_, _, servers := newCluster(t, 1, 1)
	for _, version := range []int64{1, 4, 7, 8, 9, 10, 11, 14, 15} {
		c, err := net.Dial("tcp", servers[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hello := &frame{Op: opHello, Dst: 0, Tag: helloMagic, Version: version, Bytes: 1, Bytes2: 1}
		if err := writeFrame(c, hello); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("wire version %d, want %d", version, wireVersion)
		if resp.Status != statusErr || !strings.Contains(resp.Err, want) {
			t.Fatalf("v%d hello answered with status %d, err %q; want a rejection saying %q",
				version, resp.Status, resp.Err, want)
		}
	}
}

// TestReaderPatienceGovernsNode: the patience of a read is the reader's. A
// node configured with nothing bounds a driver's read of a buffer nobody
// exposes by the driver's 50 ms — a *transport.SpecError wrapping
// transport.ErrReadPatience, its connection closed, not pooled — and,
// under a driver patience of 0, waits for the same buffer until it is
// exposed. Every wait is bounded here, so a node that ignored the reader's
// patience fails the test instead of hanging it.
func TestReaderPatienceGovernsNode(t *testing.T) {
	m, err := cluster.NewMachine(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(transport.NewFabric(m), 0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	const patience = 50 * time.Millisecond
	f := transport.NewFabric(m)
	b, err := Connect(f, map[cluster.NodeID]string{0: srv.Addr()}, Config{ReadPatience: patience})
	if err != nil {
		t.Fatal(err)
	}
	f.SetBackend(b)
	t.Cleanup(func() { b.Close() })
	region := geometry.BoxFromSize([]int{4, 4})
	spec := transport.ReadSpec{Owner: 0, Key: transport.BufKey{Name: "u|" + region.String(), Version: 1},
		Sub: region, Bytes: region.Volume() * cods.ElemSize}
	read := func() error {
		done := make(chan error, 1)
		go func() {
			done <- f.Endpoint(0).ReadMulti([]transport.ReadSpec{spec}, dataMeter, func(_ int, _ any, clipped []byte) error {
				return checkSegment(spec, clipped)
			})
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("the read still waits after 10 s under a driver patience of %s", b.cfg.ReadPatience)
			return nil
		}
	}

	err = read()
	var se *transport.SpecError
	if !errors.As(err, &se) || se.Index != 0 || !errors.Is(err, transport.ErrReadPatience) {
		t.Fatalf("err = %v, want a *transport.SpecError at index 0 wrapping transport.ErrReadPatience", err)
	}
	if n := len(pooled(b, 0)); n != 0 {
		t.Fatalf("%d connections pooled after the failed read, want 0", n)
	}

	b.cfg.ReadPatience = 0
	ready := make(chan struct{})
	time.AfterFunc(4*patience, func() { close(ready) })
	exposed := exposeLater(f, spec, ready)
	if err := read(); err != nil {
		t.Fatalf("the read without patience failed before its buffer was exposed: %v", err)
	}
	if err := <-exposed; err != nil {
		t.Fatal(err)
	}
}

// TestReadMultiRefusesBadPatience: a read patience is a non-negative
// time.Duration in nanoseconds. A request whose Tag is none is refused
// with an error response before any segment, and its connection stays in
// protocol sync: the next request on it is answered.
func TestReadMultiRefusesBadPatience(t *testing.T) {
	f, b, _ := newCluster(t, 1, 1)
	spec := fanoutBlock(t, f, 0, 0, smallSide)
	payload, err := appendReadSpecs(nil, []transport.ReadSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := b.conn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fr := &frame{Op: opReadMulti, Tag: 1 << 63, Payload: payload}
	if err := writeFrame(c, fr); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(c)
	if err != nil || resp.Status != statusErr || !strings.Contains(resp.Err, "read patience") {
		t.Fatalf("a patience of %#x answered with %+v, %v; want an error response naming the read patience", fr.Tag, resp, err)
	}
	fr.Tag = uint64(time.Second)
	if err := writeFrame(c, fr); err != nil {
		t.Fatal(err)
	}
	if resp, err := readFrame(c); err != nil || resp.Status != statusOK || resp.Bytes != 1 {
		t.Fatalf("the next request on the connection answered with %+v, %v; want one segment announced", resp, err)
	}
	status, index, length, err := readSegmentHeader(c)
	if err != nil || status != statusOK || index != 0 {
		t.Fatalf("segment header: status %d, index %d, %v", status, index, err)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(c, body); err != nil {
		t.Fatal(err)
	}
	if err := checkSegment(spec, body); err != nil {
		t.Fatal(err)
	}
}

// TestReadSpecsRoundTrip pins the spec codec: encode/decode is the
// identity and the decoder is strict about truncation and trailing bytes.
func TestReadSpecsRoundTrip(t *testing.T) {
	specs := []transport.ReadSpec{
		{Owner: 3, Key: transport.BufKey{Name: "temperature|[0,8)", Version: 7},
			Sub: geometry.NewBBox(geometry.Point{1, 2}, geometry.Point{5, 6}), Bytes: 128},
		{Owner: 0, Key: transport.BufKey{Name: "v", Version: 0},
			Sub: geometry.NewBBox(geometry.Point{0}, geometry.Point{1}), Bytes: 8},
	}
	buf, err := appendReadSpecs(nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeReadSpecs(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("decoded %d specs, want %d", len(got), len(specs))
	}
	for i := range specs {
		if got[i].Owner != specs[i].Owner || got[i].Key != specs[i].Key ||
			got[i].Bytes != specs[i].Bytes || !got[i].Sub.Equal(specs[i].Sub) {
			t.Fatalf("spec %d round-tripped to %+v, want %+v", i, got[i], specs[i])
		}
	}
	for n := 0; n < len(buf); n++ {
		if _, err := decodeReadSpecs(buf[:n]); err == nil {
			t.Fatalf("decoder accepted %d-byte prefix of a %d-byte spec list", n, len(buf))
		}
	}
	if _, err := decodeReadSpecs(append(buf, 0)); err == nil {
		t.Fatal("decoder accepted trailing byte")
	}
}
