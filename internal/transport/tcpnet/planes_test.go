package tcpnet_test

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/membership"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// The optional planes on the pull path, each held to what it costs in
// units that do not vary from run to run — wire bytes, request frames,
// segments, flows, allocations — on one rig: a driver and the four serving
// nodes of a 4x4 machine (node.Cluster, the shape codsrun -backend=tcp
// deploys), sixteen 32x32 blocks (8 KiB) placed round-robin so adjacent
// blocks always live on different cores, and a consumer on core 0 reading
// the half-block-inset region, which every boundary block's owner has to
// clip. What the planes cost in time is measured end to end by the repo
// benchmark's paired runs (`bash bench/run.sh`): trace.overhead_ratio of
// its traced run for observability, stream-lockstep-tcp for streaming.
const (
	planeGrid  = 4  // blocks per domain side
	planeBlock = 32 // cells per block side

	// planeRuns is how many repetitions testing.AllocsPerRun averages.
	planeRuns = 200
)

// Allocation bounds, each the value measured when its clause was written
// (go1.24.0, without -race).
const (
	warmGetAllocs = 118 // one warm get of the inset, every plane off
	getMissAllocs = 108 // one uncached small get on the getMissRig
	obsGetAllocs  = 19  // what the observability plane adds to it

	// One warm expose and withdrawal of a 2 MiB block, sender and owner
	// together (BenchmarkExposeBlock): 16 when the sender encoded its cells
	// into a pooled staging buffer (wire v15), 18 once it wrote them from
	// the block's memory, the first piece behind the frame head in one
	// vectored write whose buffer list it allocated, and 16 since that list
	// comes from runsPool. The bytes are bounded, so that no buffer sized by
	// the block is allocated.
	exposeAllocs     = 16
	exposeAllocBytes = 64 << 10
)

// allocsPinned reports whether this build is held to the allocation
// bounds: not under -race, where sync.Pool drops what it is given at
// random, and on the compiler release they were measured with, since
// another may allocate differently.
var allocsPinned = !tcpnet.RaceEnabled && strings.HasPrefix(runtime.Version(), "go1.24")

// planeCost is what a stretch of work put on the wire — the WireStats
// deltas of the driver and every node, together both sides of every
// exchange — and into the machine's flow log.
type planeCost struct {
	Wire           tcpnet.WireStats
	Flows, Control int
}

type planeRig struct {
	f        *transport.Fabric
	nodes    *node.Cluster
	sp       *cods.Space
	domain   geometry.BBox
	inset    geometry.BBox
	blocks   []geometry.BBox
	data     [][]float64
	owners   []*cods.Handle
	consumer *cods.Handle
}

// newPlaneRig builds the rig with every plane off.
func newPlaneRig(t *testing.T) *planeRig {
	t.Helper()
	wasOn := obs.Enabled()
	obs.Enable(false)
	t.Cleanup(func() { obs.Enable(wasOn) })
	m, err := cluster.NewMachine(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	side := planeGrid * planeBlock
	r := &planeRig{
		f:      transport.NewFabric(m),
		domain: geometry.BoxFromSize([]int{side, side}),
		inset: geometry.NewBBox(geometry.Point{planeBlock / 2, planeBlock / 2},
			geometry.Point{side - planeBlock/2, side - planeBlock/2}),
	}
	if r.nodes, err = node.NewCluster(r.f, r.domain, tcpnet.Config{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.nodes.Close)
	if r.sp, err = cods.NewSpace(r.f, r.domain); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < planeGrid*planeGrid; n++ {
		x, y := n/planeGrid*planeBlock, n%planeGrid*planeBlock
		blk := geometry.NewBBox(geometry.Point{x, y}, geometry.Point{x + planeBlock, y + planeBlock})
		r.blocks = append(r.blocks, blk)
		r.data = append(r.data, tcpnet.FillCells(blk))
		r.owners = append(r.owners, r.sp.HandleAt(cluster.CoreID(n%m.TotalCores()), 1, "put"))
	}
	r.consumer = r.sp.HandleAt(0, 2, "get")
	return r
}

// stage puts every block as version 0 of "u" and gets the inset once, which
// fills the consumer's schedule cache and the connection pools: a get after
// it is pull execution alone.
func (r *planeRig) stage(t *testing.T) {
	t.Helper()
	for i, h := range r.owners {
		if err := h.PutSequential("u", 0, r.blocks[i], r.data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.get(); err != nil {
		t.Fatal(err)
	}
}

func (r *planeRig) get() error {
	_, err := r.consumer.GetSequential("u", 0, r.inset)
	return err
}

// wire sums the WireStats of the driver and of every node: the driver's
// bytes and request frames, the nodes' segments.
func (r *planeRig) wire() tcpnet.WireStats {
	w := r.nodes.Driver().WireStats()
	for k := 0; k < r.f.Machine().NumNodes(); k++ {
		n := r.nodes.Node(cluster.NodeID(k)).Server().WireStats()
		w.BytesOut += n.BytesOut
		w.BytesIn += n.BytesIn
		w.ReadMultiRequests += n.ReadMultiRequests
		w.SegmentsServed += n.SegmentsServed
		w.SegmentBytesServed += n.SegmentBytesServed
	}
	return w
}

func (r *planeRig) cost(t *testing.T, work func() error) planeCost {
	t.Helper()
	metrics := r.f.Machine().Metrics()
	before, logged := r.wire(), len(metrics.Flows(""))
	if err := work(); err != nil {
		t.Fatal(err)
	}
	after := r.wire()
	c := planeCost{Wire: tcpnet.WireStats{
		BytesOut:           after.BytesOut - before.BytesOut,
		BytesIn:            after.BytesIn - before.BytesIn,
		ReadMultiRequests:  after.ReadMultiRequests - before.ReadMultiRequests,
		SegmentsServed:     after.SegmentsServed - before.SegmentsServed,
		SegmentBytesServed: after.SegmentBytesServed - before.SegmentBytesServed,
	}}
	for _, fl := range metrics.Flows("")[logged:] {
		c.Flows++
		if fl.Class == cluster.Control.String() {
			c.Control++
		}
	}
	return c
}

// allocs is testing.AllocsPerRun of work, with the collector off: a
// collection would empty the buffer pools the data path recycles.
func allocs(t *testing.T, work func() error) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(planeRuns, func() {
		if err := work(); err != nil {
			t.Fatal(err)
		}
	})
}

// getAllocs is allocs of one warm get, from an empty flow log so that the
// log's growth costs every measurement alike.
func (r *planeRig) getAllocs(t *testing.T) float64 {
	t.Helper()
	r.f.Machine().Metrics().Reset()
	return allocs(t, r.get)
}

// warmGet is the cost of one warm get of the inset from core 0: one
// scatter-gather request to each of the four nodes, the sixteen blocks
// they own clipped to the inset (9,216 cells), and one flow per block.
var warmGet = planeCost{
	Wire: tcpnet.WireStats{BytesOut: 1444, BytesIn: 74152, ReadMultiRequests: 4,
		SegmentsServed: 16, SegmentBytesServed: 73728},
	Flows: 16,
}

// warmExpose is the cost of exposing a 512x512 block (2 MiB, a
// stream-lockstep-tcp block) on core 5 and withdrawing it again: the
// block's frame (2,097,258 bytes: 73 of frame, 33 of block header, the
// cells) and the 73-byte unexpose frame out, two bare 70-byte response
// frames back, no segment and no flow — the fabric meters no expose.
var warmExpose = planeCost{Wire: tcpnet.WireStats{BytesOut: 2097331, BytesIn: 140}}

// TestPlaneCosts holds each optional plane of the pull path to its cost on
// the rig; one subtest per plane, and one for the write path the planes
// ride beside. The allocation clauses run where allocsPinned.
func TestPlaneCosts(t *testing.T) {
	// The write path: a warm expose and withdrawal of a 2 MiB block through
	// the driver. The sender writes the cells from the block's memory, and
	// warm, the owner's free list holds a body of the block's size, so the
	// cycle allocates bookkeeping only.
	t.Run("expose", func(t *testing.T) {
		r := newPlaneRig(t)
		region := geometry.BoxFromSize([]int{512, 512})
		obj := &cods.StoredObject{Region: region, Data: tcpnet.FillCells(region)}
		ep, key := r.f.Endpoint(5), transport.BufKey{Name: "blk", Version: 1}
		cycle := func() error {
			if err := ep.Expose(key, obj); err != nil {
				return err
			}
			return ep.Unexpose(key)
		}
		if err := cycle(); err != nil {
			t.Fatal(err)
		}
		if c := r.cost(t, cycle); c != warmExpose {
			t.Errorf("a warm expose and withdrawal costs %+v, want %+v", c, warmExpose)
		}
		if !allocsPinned {
			return
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := allocs(t, cycle)
		runtime.ReadMemStats(&after)
		// AllocsPerRun runs the cycle once more than it averages over.
		perCycle := (after.TotalAlloc - before.TotalAlloc) / (planeRuns + 1)
		t.Logf("a warm expose and withdrawal allocates %v times, %d bytes", n, perCycle)
		if n > exposeAllocs || perCycle > exposeAllocBytes {
			t.Errorf("a warm expose and withdrawal allocates %v times, %d bytes; want <= %d, <= %d",
				n, perCycle, exposeAllocs, exposeAllocBytes)
		}
	})

	// The registry on, with its wire-mirror counters, plus a tracer — every
	// pull stamps its span id into the request frames, so every served
	// request emits a handler span (a serving node always captures; an
	// untraced get sends span 0 and leaves its sink empty). None of it may
	// change a byte on the wire or a flow, the handler spans must be
	// exactly one per request frame, and the whole plane costs a bounded
	// number of allocations per get.
	t.Run("distributed-obs", func(t *testing.T) {
		r := newPlaneRig(t)
		r.stage(t)
		off := r.cost(t, r.get)
		var offAllocs float64
		if allocsPinned {
			offAllocs = r.getAllocs(t)
		}

		var untraced bytes.Buffer
		if err := r.nodes.Driver().DrainRemoteSpans(obs.NewTracer(&untraced)); err != nil {
			t.Fatal(err)
		}
		if untraced.Len() != 0 {
			t.Errorf("untraced gets left %d bytes of handler spans on the nodes", untraced.Len())
		}
		r.sp.SetTracer(obs.NewTracer(io.Discard))
		obs.Enable(true)
		mirrorBytesOut, mirrorBytesIn := obs.C("tcpnet.bytes_out"), obs.C("tcpnet.bytes_in")
		mirrorOut, mirrorIn := mirrorBytesOut.Value(), mirrorBytesIn.Value()
		on := r.cost(t, r.get)
		if out, in := mirrorBytesOut.Value()-mirrorOut, mirrorBytesIn.Value()-mirrorIn; out != on.Wire.BytesOut || in != on.Wire.BytesIn {
			t.Errorf("registry mirrors %d B out, %d B in; the wire counters %d, %d", out, in, on.Wire.BytesOut, on.Wire.BytesIn)
		}
		if off != warmGet || on != warmGet {
			t.Errorf("a warm get costs %+v with the plane off, %+v on; want %+v both", off, on, warmGet)
		}
		var lines bytes.Buffer
		sink := obs.NewTracer(&lines)
		if err := r.nodes.Driver().DrainRemoteSpans(sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadSpans(&lines)
		if err != nil {
			t.Fatal(err)
		}
		handlers := 0
		for _, ev := range evs {
			if ev.Ev == "b" && strings.HasPrefix(ev.Name, "remote:") {
				handlers++
			}
		}
		if int64(handlers) != on.Wire.ReadMultiRequests {
			t.Errorf("%d handler spans for %d request frames", handlers, on.Wire.ReadMultiRequests)
		}

		if !allocsPinned {
			return
		}
		onAllocs := r.getAllocs(t)
		t.Logf("a warm get allocates %v times with the plane off, %v on", offAllocs, onAllocs)
		if offAllocs > warmGetAllocs || onAllocs > offAllocs+obsGetAllocs {
			t.Errorf("a warm get allocates %v times with the plane off, %v on; want <= %d and <= off + %d",
				offAllocs, onAllocs, warmGetAllocs, obsGetAllocs)
		}
	})

	// An enabled retry policy on a fault-free fabric: no attempt fails, so
	// the policy may cost nothing — no byte, no flow, no allocation — and
	// retry nothing.
	t.Run("retry", func(t *testing.T) {
		r := newPlaneRig(t)
		r.stage(t)
		off := r.cost(t, r.get)
		var offAllocs float64
		if allocsPinned {
			offAllocs = r.getAllocs(t)
		}

		r.sp.SetRetryPolicy(retry.Default())
		on := r.cost(t, r.get)
		if off != warmGet || on != warmGet {
			t.Errorf("a warm get costs %+v without a retry policy, %+v with one; want %+v both", off, on, warmGet)
		}
		retries := obs.C("cods.pull.retries")
		obs.Enable(true)
		before := retries.Value()
		if err := r.get(); err != nil {
			t.Fatal(err)
		}
		obs.Enable(false)
		if n := retries.Value() - before; n != 0 {
			t.Errorf("a fault-free get retried %d times", n)
		}

		if !allocsPinned {
			return
		}
		if onAllocs := r.getAllocs(t); offAllocs > warmGetAllocs || onAllocs != offAllocs {
			t.Errorf("a warm get allocates %v times without a retry policy, %v with one; want <= %d, equal",
				offAllocs, onAllocs, warmGetAllocs)
		}
	})

	// What the elastic plane leaves on the pull path: the put ledger (a
	// crash is detected by the driver that spawned the process, off the
	// wire). The ledger records a put's own slice in the driver's memory,
	// so with it installed a warm get costs exactly warmGet and a put moves
	// the same wire bytes and books the same flows as without it.
	t.Run("elastic", func(t *testing.T) {
		r := newPlaneRig(t)
		r.stage(t)
		const blk = 5 // owned by core 5, on node 1
		put := func(version int) func() error {
			return func() error {
				return r.owners[blk].PutSequential("u", version, r.blocks[blk], r.data[blk])
			}
		}
		without := r.cost(t, put(1))
		ledger := membership.NewLedger()
		r.sp.SetPutRecorder(ledger)
		with := r.cost(t, put(2))
		if with != without || with.Wire.BytesOut == 0 {
			t.Errorf("a put costs %+v with the ledger, %+v without; want the same nonzero cost", with, without)
		}
		if n := ledger.Len(); n != 1 {
			t.Errorf("the ledger holds %d blocks after one put, want 1", n)
		}
		if c := r.cost(t, r.get); c != warmGet {
			t.Errorf("a warm get costs %+v with the ledger, want %+v", c, warmGet)
		}
	})

	// Two lock-step versions of a stream — a publish per block, a windowed
	// read, an advance that retires the version — against the classic
	// sequence they generalize: a put per block, a get, a discard per block.
	// The two move the same bytes in the same frames and book the same
	// flows; the classic discards run under the retire phase, "stream:gc",
	// because the phase rides in every frame.
	t.Run("streaming", func(t *testing.T) {
		r := newPlaneRig(t)
		const versions = 2
		var gc []*cods.Handle
		for _, h := range r.owners {
			gc = append(gc, r.sp.HandleAt(h.Core(), 1, "stream:gc"))
		}
		classic := func(v string) error {
			for ver := 0; ver < versions; ver++ {
				for i, h := range r.owners {
					if err := h.PutSequential(v, ver, r.blocks[i], r.data[i]); err != nil {
						return err
					}
				}
				if _, err := r.consumer.GetSequential(v, ver, r.domain); err != nil {
					return err
				}
				for i, h := range gc {
					if err := h.DiscardSequential(v, ver, r.blocks[i]); err != nil {
						return err
					}
				}
			}
			return nil
		}
		streamed := func(v string) error {
			err := r.sp.DeclareStream(v, cods.StreamConfig{
				Producers: len(r.owners), MaxLag: versions, Policy: cods.Backpressure})
			if err != nil {
				return err
			}
			cur, err := r.consumer.Subscribe(v)
			if err != nil {
				return err
			}
			for ver := 0; ver < versions; ver++ {
				for i, h := range r.owners {
					if _, err := h.Publish(v, i, r.blocks[i], r.data[i]); err != nil {
						return err
					}
				}
				if _, err := cur.GetWindow(r.domain, ver, ver); err != nil {
					return err
				}
				if err := cur.Advance(ver + 1); err != nil {
					return err
				}
			}
			for i, h := range r.owners {
				if err := h.ClosePublisher(v, i); err != nil {
					return err
				}
			}
			return cur.Close()
		}
		// One round of each fills the connection pools.
		if err := classic("w0"); err != nil {
			t.Fatal(err)
		}
		if err := streamed("w1"); err != nil {
			t.Fatal(err)
		}
		want := planeCost{
			Wire: tcpnet.WireStats{BytesOut: 281744, BytesIn: 274184, ReadMultiRequests: 8,
				SegmentsServed: 32, SegmentBytesServed: 262144},
			Flows: 176, Control: 144,
		}
		classicCost := r.cost(t, func() error { return classic("c0") })
		streamCost := r.cost(t, func() error { return streamed("s0") })
		if classicCost != want || streamCost != want {
			t.Errorf("two versions cost %+v classic, %+v streamed; want %+v both", classicCost, streamCost, want)
		}
	})
}

// getMissRig is the deployment shape of the repo benchmark's seq-lookup-tcp
// workload in one process: a driver and the two serving nodes of a 2x2
// machine (node.Cluster), a 512x512 domain staged as 1024 blocks of 16x16
// round-robin over the four cores, and seeded regions of 17-32 cells a
// side, read with the schedule cache off. Every get pays the cover walk,
// the DHT query over the wire, the schedule and a scatter-gather read of a
// few 1-2 KiB segments per node.
type getMissRig struct {
	consumer *cods.Handle
	regions  []geometry.BBox
	next     int
}

func newGetMissRig(tb testing.TB) *getMissRig {
	tb.Helper()
	wasOn := obs.Enabled()
	obs.Enable(false)
	tb.Cleanup(func() { obs.Enable(wasOn) })
	const side, block = 512, 16
	m, err := cluster.NewMachine(2, 2)
	if err != nil {
		tb.Fatal(err)
	}
	f := transport.NewFabric(m)
	domain := geometry.BoxFromSize([]int{side, side})
	nodes, err := node.NewCluster(f, domain, tcpnet.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(nodes.Close)
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		tb.Fatal(err)
	}
	for n := 0; n < (side/block)*(side/block); n++ {
		x, y := n/(side/block)*block, n%(side/block)*block
		blk := geometry.NewBBox(geometry.Point{x, y}, geometry.Point{x + block, y + block})
		if err := sp.HandleAt(cluster.CoreID(n%4), 1, "put").PutSequential("u", 0, blk, tcpnet.FillCells(blk)); err != nil {
			tb.Fatal(err)
		}
	}
	r := &getMissRig{consumer: sp.HandleAt(0, 2, "get"), regions: make([]geometry.BBox, 4096)}
	r.consumer.CacheEnabled = false
	rng := rand.New(rand.NewSource(1))
	for i := range r.regions {
		w, h := 17+rng.Intn(16), 17+rng.Intn(16)
		x, y := rng.Intn(side-w+1), rng.Intn(side-h+1)
		r.regions[i] = geometry.NewBBox(geometry.Point{x, y}, geometry.Point{x + w, y + h})
	}
	return r
}

// get reads the rig's next region.
func (r *getMissRig) get() error {
	_, err := r.consumer.GetSequential("u", 0, r.regions[r.next%len(r.regions)])
	r.next++
	return err
}

// BenchmarkGetMiss times one uncached small get on the getMissRig: the
// in-repo witness of what a lookup miss costs, allocations included.
func BenchmarkGetMiss(b *testing.B) {
	r := newGetMissRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.get(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGetMissAllocations holds one uncached small get on the getMissRig to
// its allocation count, after a few gets have filled the connection and
// buffer pools.
func TestGetMissAllocations(t *testing.T) {
	if !allocsPinned {
		t.Skip("allocation counts are pinned without -race, on go1.24")
	}
	r := newGetMissRig(t)
	for i := 0; i < 16; i++ {
		if err := r.get(); err != nil {
			t.Fatal(err)
		}
	}
	n := allocs(t, r.get)
	t.Logf("an uncached small get allocates %v times", n)
	if n > getMissAllocs {
		t.Errorf("an uncached small get allocates %v times, want <= %d", n, getMissAllocs)
	}
}
