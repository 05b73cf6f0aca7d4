package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
)

// The block data path over loopback sockets, without cods above it: an
// expose through the driver's Backend.Expose crosses the wire to its owning
// node, and a ReadMulti streams owner-clipped segments back.

const (
	exposeSide  = 512 // 512 x 512 float64 = 2 MiB, a stream-lockstep-tcp block
	segmentSide = 256 // 256 x 256 float64 = 512 KiB, a seq-bulk-tcp segment
	segments    = 16
)

var dataMeter = transport.Meter{Phase: "bench", Class: cluster.InterApp, DstApp: 2}

// stageSegments exposes `segments` blocks of segmentSide² cells on core 1
// (node 1) over the wire and returns the specs reading each of them whole.
func stageSegments(tb testing.TB, b *Backend) []transport.ReadSpec {
	tb.Helper()
	specs := make([]transport.ReadSpec, segments)
	for i := range specs {
		region := geometry.NewBBox(geometry.Point{i * segmentSide, 0}, geometry.Point{(i + 1) * segmentSide, segmentSide})
		key := transport.BufKey{Name: "seg|" + region.String(), Version: 1}
		if err := b.Expose(1, key, &cods.StoredObject{Region: region, Data: fillCells(region)}); err != nil {
			tb.Fatal(err)
		}
		specs[i] = transport.ReadSpec{Owner: 1, Key: key, Sub: region, Bytes: region.Volume() * cods.ElemSize}
	}
	return specs
}

// BenchmarkExposeBlock ships one 2 MiB block to its owner and withdraws it
// again: the block's cells written a piece at a time from its memory, the
// owner's read into the body it keeps as the block — warm, the one the
// previous iteration withdrew — each piece converted to big-endian as it
// lands.
func BenchmarkExposeBlock(b *testing.B) {
	_, be, _ := newCluster(b, 2, 1)
	region := geometry.BoxFromSize([]int{exposeSide, exposeSide})
	obj := &cods.StoredObject{Region: region, Data: fillCells(region)}
	key := transport.BufKey{Name: "blk", Version: 1}
	b.SetBytes(region.Volume() * cods.ElemSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.Expose(1, key, obj); err != nil {
			b.Fatal(err)
		}
		if err := be.Unexpose(1, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadMultiBlocks pulls 16 segments of 512 KiB in one
// scatter-gather request and discards them, as the benchmark's
// tcpnet.readmulti probe does.
func BenchmarkReadMultiBlocks(b *testing.B) {
	f, be, _ := newCluster(b, 2, 1)
	specs := stageSegments(b, be)
	var total int64
	for _, spec := range specs {
		total += spec.Bytes
	}
	discard := func(int, any, []byte) error { return nil }
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Endpoint(0).ReadMulti(specs, dataMeter, discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPullPeers times one full-domain get of 12 blocks from a driver of
// a 4x4 loopback cluster with the blocks owned by 1, 2 and 3 nodes, at
// 8 KiB and at 512 KiB blocks. The get sends one scatter-gather request
// per owning node and has them all in flight together, so at equal bytes
// the rows of one block size differ only in how many peers serve them: it
// is the in-repo witness of how much that overlap is worth per block size.
func BenchmarkPullPeers(b *testing.B) {
	const blocks = 12
	for _, side := range []int{32, 256} { // 32² float64 = 8 KiB, 256² = 512 KiB
		for peers := 1; peers <= 3; peers++ {
			b.Run(fmt.Sprintf("block=%dKiB/peers=%d", side*side*cods.ElemSize>>10, peers), func(b *testing.B) {
				f, _, servers := newCluster(b, 4, 4)
				region := geometry.BoxFromSize([]int{blocks * side, side})
				withSpaces(b, servers, region)
				sp, err := cods.NewSpace(f, region)
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < blocks; n++ {
					blk := geometry.NewBBox(geometry.Point{n * side, 0}, geometry.Point{(n + 1) * side, side})
					owner := f.Machine().CoreOn(cluster.NodeID(1+n%peers), n/peers%f.Machine().CoresPerNode())
					if err := sp.HandleAt(owner, 1, "put").PutSequential("u", 0, blk, fillCells(blk)); err != nil {
						b.Fatal(err)
					}
				}
				consumer := sp.HandleAt(0, 2, "get")
				// Warm the schedule cache and the connection pool.
				if _, err := consumer.GetSequential("u", 0, region); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(region.Volume() * cods.ElemSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := consumer.GetSequential("u", 0, region); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestSegmentStagingAllocatesHeaderOnly pins the steady state of the read
// path: once the pools are warm, serving and receiving a 512 KiB segment —
// the whole block, or the block clipped by 16 cells per edge as in
// seq-bulk-tcp, 224 runs written from the block itself — allocates a few
// hundred bytes of header bookkeeping on both sides together: never a
// buffer sized by the segment, nor a run list sized by its rows.
func TestSegmentStagingAllocatesHeaderOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	f, be, _ := newCluster(t, 2, 1)
	whole := stageSegments(t, be)
	inset := make([]transport.ReadSpec, len(whole))
	for i, spec := range whole {
		spec.Sub = spec.Sub.Expand(-16, spec.Sub)
		spec.Bytes = spec.Sub.Volume() * cods.ElemSize
		inset[i] = spec
	}
	for _, tc := range []struct {
		name  string
		specs []transport.ReadSpec
	}{{"whole", whole}, {"inset", inset}} {
		t.Run(tc.name, func(t *testing.T) {
			delivered := 0
			count := func(_ int, _ any, clipped []byte) error {
				delivered += len(clipped)
				return nil
			}
			read := func() {
				if err := f.Endpoint(0).ReadMulti(tc.specs, dataMeter, count); err != nil {
					t.Fatal(err)
				}
			}
			read() // dial, and hand each side its first pooled buffers
			// A collection in the window would empty the pools; the window
			// itself allocates next to nothing, so switching the collector
			// off is safe.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			// sync.Pool keeps one buffer per P out of the other Ps' reach, so
			// a round that migrates to a cold P still allocates once; the
			// median round is the steady state.
			const rounds = 9
			perRound := make([]uint64, rounds)
			for i := range perRound {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				read()
				runtime.ReadMemStats(&after)
				perRound[i] = after.TotalAlloc - before.TotalAlloc
			}
			if want := (rounds + 1) * segments * int(tc.specs[0].Bytes); delivered != want {
				t.Fatalf("delivered %d bytes, want %d", delivered, want)
			}
			sort.Slice(perRound, func(i, j int) bool { return perRound[i] < perRound[j] })
			perSegment := perRound[rounds/2] / segments
			if perSegment > 1024 {
				t.Fatalf("%d bytes allocated per %d-byte segment (both sides), want header-sized (<= 1 KiB); rounds: %v",
					perSegment, tc.specs[0].Bytes, perRound)
			}
			t.Logf("%d bytes per segment, server and client together", perSegment)
		})
	}
}

// TestBlockBytesNeverAliased holds the two ownership rules of the block
// path: an expose over the wire copies — scribbling on the caller's slice
// afterwards changes nothing the owner serves — and the clipped slice of a
// SegmentFunc is scratch: a reader that keeps it past the callback and
// overwrites it cannot corrupt what a later read delivers.
func TestBlockBytesNeverAliased(t *testing.T) {
	f, be, _ := newCluster(t, 2, 1)
	region := geometry.BoxFromSize([]int{64, 64}) // 32 KiB: vectored write, staged read
	obj := &cods.StoredObject{Region: region, Data: fillCells(region)}
	want, err := obj.ClipRegion(nil, region)
	if err != nil {
		t.Fatal(err)
	}
	key := transport.BufKey{Name: "blk", Version: 1}
	if err := be.Expose(1, key, obj); err != nil {
		t.Fatal(err)
	}
	for i := range obj.Data {
		obj.Data[i] = -1
	}
	spec := []transport.ReadSpec{{Owner: 1, Key: key, Sub: region, Bytes: region.Volume() * cods.ElemSize}}
	var kept []byte
	for round := 0; round < 3; round++ {
		err := f.Endpoint(0).ReadMulti(spec, dataMeter, func(_ int, _ any, clipped []byte) error {
			if !bytes.Equal(clipped, want) {
				t.Errorf("read %d delivered bytes that differ from the block as exposed", round)
			}
			kept = clipped
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range kept {
			kept[i] = 0xEE // the callback has returned: this is the pool's buffer now
		}
	}
}

// exposedSubBoxMismatch exposes 1-3-D blocks on core 1 through the
// driver's Backend.Expose, so each crosses the loopback wire and its owning
// node keeps the block it decoded, then reads sub-boxes of each back from
// core 0 in one ReadMulti a block: the whole block, its interior, the block
// less its lower faces, boxes straddling its lower and upper corners, a
// single cell and a disjoint box. It returns the first segment that differs
// from StoredObject.ClipRegion of the same cells. The last block is tall
// and thin: its clipped sub-boxes exceed maxInlineBody and have more rows
// than one writev takes (1,024), so they leave as runs of the block in
// several vectored writes, while every sub-box of the others is inlined.
func exposedSubBoxMismatch(tb testing.TB) error {
	// near is the box [at+lo, at+hi) in every dimension.
	near := func(at geometry.Point, lo, hi int) geometry.BBox {
		b := geometry.BBox{Min: make(geometry.Point, len(at)), Max: make(geometry.Point, len(at))}
		for d, x := range at {
			b.Min[d], b.Max[d] = x+lo, x+hi
		}
		return b
	}
	f, be, _ := newCluster(tb, 2, 1)
	for _, region := range []geometry.BBox{
		geometry.NewBBox(geometry.Point{5}, geometry.Point{37}),
		geometry.NewBBox(geometry.Point{8, 4}, geometry.Point{20, 14}),
		geometry.NewBBox(geometry.Point{0, 3, 1}, geometry.Point{5, 9, 8}),
		geometry.BoxFromSize([]int{4096, 4}), // less its lower faces: 4,095 rows of 24 B
	} {
		obj := &cods.StoredObject{Region: region, Data: fillCells(region)}
		key := transport.BufKey{Name: "blk|" + region.String(), Version: 1}
		if err := be.Expose(1, key, obj); err != nil {
			return err
		}
		subs := []geometry.BBox{region, region.Expand(-1, region), geometry.NewBBox(region.Expand(-1, region).Min, region.Max), near(region.Min, -2, 3),
			near(region.Max, -3, 2), near(region.Min, 1, 2), near(region.Max, 0, 2)}
		specs := make([]transport.ReadSpec, len(subs))
		for i, sub := range subs {
			clip, _ := sub.Intersect(region)
			specs[i] = transport.ReadSpec{Owner: 1, Key: key, Sub: sub, Bytes: clip.Volume() * cods.ElemSize}
		}
		err := f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, clipped []byte) error {
			want, err := obj.ClipRegion(nil, subs[i])
			if err != nil {
				return err
			}
			if !bytes.Equal(clipped, want) {
				return fmt.Errorf("block %v, sub-box %v: the owner served %d bytes that differ from the %d of the block as exposed",
					region, subs[i], len(clipped), len(want))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TestExposedBlockServesSubBoxes holds the block a serving process decoded
// to the block it was sent: every sub-box of exposedSubBoxMismatch reads
// back byte for byte as the sender's own clip.
func TestExposedBlockServesSubBoxes(t *testing.T) {
	if err := exposedSubBoxMismatch(t); err != nil {
		t.Fatal(err)
	}
}

// TestLargeFrameRoundTrip sends RPC payloads on both sides of maxInlineBody
// through the frame path — inlined behind the header, and vectored behind
// it — and checks that each comes back intact from an echoing handler,
// stays intact while later traffic reuses every pooled buffer, and is
// charged to the wire counters byte for byte in both directions.
func TestLargeFrameRoundTrip(t *testing.T) {
	f, be, servers := newCluster(t, 2, 1)
	m := transport.Meter{Phase: "t", Class: cluster.Control, DstApp: 1}
	servers[1].fabric.Endpoint(1).RegisterHandler("echo", func(_ cluster.CoreID, req any) (any, error) { return req, nil })
	var sent, got []echoPayload
	for i, size := range []int{3, 11, maxInlineBody, maxInlineBody + 1, 1 << 20} {
		// Tag byte, u16 text length, text, then 8 bytes a value: size on the wire.
		req := echoPayload{Text: strings.Repeat("x", (size-3)%8), Vals: make([]float64, (size-3)/8)}
		for j := range req.Vals {
			req.Vals[j] = float64(i + 1)
		}
		sent = append(sent, req)
		before := be.WireStats()
		resp, err := f.Endpoint(0).Call(1, "echo", req, m, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		after := be.WireStats()
		for _, n := range []int64{after.BytesOut - before.BytesOut, after.BytesIn - before.BytesIn} {
			if n < int64(size) || n > int64(size)+256 {
				t.Fatalf("a %d-byte payload and its echo put %d bytes on the wire one way", size, n)
			}
		}
		got = append(got, resp.(echoPayload))
	}
	for i := range sent {
		if !bytes.Equal(got[i].AppendWire(nil), sent[i].AppendWire(nil)) {
			t.Fatalf("payload %d (%d values) changed after later frames reused the buffers", i, len(sent[i].Vals))
		}
	}
}

// TestExposeRefusesOversizedBlock: a block whose frame would exceed
// maxFrame is refused by the sender with the limit in the message, as
// terminal (transport.ErrTooLarge), before a byte reaches the wire — and a
// put of it under a retry policy fails on its first attempt, not after
// retrying what cannot succeed.
func TestExposeRefusesOversizedBlock(t *testing.T) {
	f, be, servers := newCluster(t, 2, 1)
	// 8 Mi cells: the cell section alone is maxFrame bytes. The cells are
	// never touched, so their pages are never faulted in.
	region := geometry.BoxFromSize([]int{4096, 2048})
	data := make([]float64, region.Volume())
	withSpaces(t, servers, region)
	sp, err := cods.NewSpace(f, region)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetRetryPolicy(retry.Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
	before := be.WireStats()
	err = be.Expose(1, transport.BufKey{Name: "huge", Version: 1}, &cods.StoredObject{Region: region, Data: data})
	if !errors.Is(err, transport.ErrTooLarge) || !strings.Contains(err.Error(), fmt.Sprintf("exceeds limit %d", maxFrame)) {
		t.Fatalf("exposing a %d-cell block: err = %v, want the frame limit (transport.ErrTooLarge)", len(data), err)
	}
	if err := sp.HandleAt(1, 1, "put").PutSequential("u", 0, region, data); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("putting the block: err = %v, want transport.ErrTooLarge", err)
	}
	// A retried put would have withdrawn the block first: an unexpose and
	// DHT removals on the wire.
	if after := be.WireStats(); after != before {
		t.Fatalf("refused exposes moved the wire counters from %+v to %+v", before, after)
	}
}

// TestRefusedExposeHandsBodyBack: the body an expose arrived in goes back
// to its node's free list when the expose is refused — the key is already
// exposed (transport.ErrExposed, which crosses the wire as statusExposed),
// or the block does not decode — and when the block is withdrawn.
func TestRefusedExposeHandsBodyBack(t *testing.T) {
	_, be, servers := newCluster(t, 2, 1)
	owner := servers[1].bodies
	freeBytes := func() int {
		owner.mu.Lock()
		defer owner.mu.Unlock()
		return owner.freeBytes
	}
	region := geometry.BoxFromSize([]int{64, 64})
	obj := &cods.StoredObject{Region: region, Data: fillCells(region)}
	key := transport.BufKey{Name: "blk", Version: 1}
	body := 1 + 16*region.Dim() + int(region.Volume())*cods.ElemSize
	if err := be.Expose(1, key, obj); err != nil {
		t.Fatal(err)
	}
	if err := be.Expose(1, key, obj); !errors.Is(err, transport.ErrExposed) {
		t.Fatalf("a second expose of %v: err = %v, want transport.ErrExposed across the wire", key, err)
	}
	if n := freeBytes(); n != body {
		t.Fatalf("after a refused expose the free list holds %d bytes, want its %d-byte body", n, body)
	}
	bad := sampleBlockPayload()
	if resp := answer(servers[1], &frame{Op: opExpose, Kind: payloadBlock, Dst: 1, Name: "bad", Payload: bad[:len(bad)-1]}); resp.Status != statusErr {
		t.Fatalf("a block that does not decode was exposed: status %d", resp.Status)
	}
	if n := freeBytes(); n != body+len(bad)-1 {
		t.Fatalf("after a refused decode the free list holds %d bytes, want %d", n, body+len(bad)-1)
	}
	if err := be.Unexpose(1, key); err != nil {
		t.Fatal(err)
	}
	if n := freeBytes(); n != 2*body+len(bad)-1 {
		t.Fatalf("after the withdrawal the free list holds %d bytes, want %d", n, 2*body+len(bad)-1)
	}
}

// TestServedSegmentNeverSeesRecycledBody: a block withdrawn while a
// segment of it is still being written keeps its body until the write is
// done. The reader's socket buffer is shrunk so the owner's write of an
// 8 MiB segment stalls with most of it unsent; meanwhile the block is
// withdrawn and a block of the same size with other cells is exposed on
// the same node. The late reader still receives the first block cell for
// cell, and the withdrawn body is recycled once the write completes.
func TestServedSegmentNeverSeesRecycledBody(t *testing.T) {
	_, be, servers := newCluster(t, 2, 1)
	region := geometry.BoxFromSize([]int{1024, 1024})
	first := &cods.StoredObject{Region: region, Data: fillCells(region)}
	want, err := first.ClipRegion(nil, region)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := transport.BufKey{Name: "first", Version: 1}, transport.BufKey{Name: "second", Version: 1}
	if err := be.Expose(1, k1, first); err != nil {
		t.Fatal(err)
	}
	c, _, err := be.conn(1) // the connection the read will go out on
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	be.release(1, c)
	specs := []transport.ReadSpec{{Owner: 1, Key: k1, Sub: region, Bytes: region.Volume() * cods.ElemSize}}
	x := exchange{node: 1, lo: 0, hi: 1, big: true}
	if err := be.send(&x, 0, specs, dataMeter); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if x.c != nil {
			x.c.Close()
		}
	}()
	// The owner counts a segment served just before it writes it.
	for start := time.Now(); servers[1].WireStats().SegmentsServed == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the owner never started serving the segment")
		}
	}
	if err := be.Unexpose(1, k1); err != nil {
		t.Fatal(err)
	}
	second := &cods.StoredObject{Region: region, Data: make([]float64, region.Volume())}
	for i := range second.Data {
		second.Data[i] = -1
	}
	if err := be.Expose(1, k2, second); err != nil {
		t.Fatal(err)
	}
	be.receive(&x, specs, func(_ int, _ any, clipped []byte) error {
		if !bytes.Equal(clipped, want) {
			for i := range clipped {
				if clipped[i] != want[i] {
					return fmt.Errorf("the segment differs from the block as exposed from byte %d of %d", i, len(want))
				}
			}
			return fmt.Errorf("the segment is %d bytes, want %d", len(clipped), len(want))
		}
		return nil
	})
	if x.err != nil {
		t.Fatal(x.err)
	}
	owner := servers[1].bodies
	owner.mu.Lock()
	defer owner.mu.Unlock()
	if body := len(want) + 1 + 16*region.Dim(); owner.freeBytes != body {
		t.Fatalf("after the write the free list holds %d bytes, want the withdrawn %d-byte body", owner.freeBytes, body)
	}
}
