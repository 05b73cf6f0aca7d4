package main

// What the three TCP workloads share: a driver connected to two codsnode
// children, the exact counters read from both sides, and the decomposed
// get the traced run substitutes for GetSequential.

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/insitu/cods/internal/cluster"
	icods "github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

// The logical machine of every TCP workload: 2 nodes × 2 cores, one
// codsnode child per node.
const (
	tcpNodes = 2
	tcpCores = 2
)

// Application ids used for metering: producers stage as app 1, consumers
// read as app 2.
const (
	appProducer = 1
	appConsumer = 2
)

// getSpec is one consumer get: who reads which region of which variable
// version, and which data variant the cells must carry.
type getSpec struct {
	core    cluster.CoreID
	v       string
	version int
	region  geometry.BBox
	variant int
}

// counters are the exact, cumulative counts a workload exposes; metrics
// are built from their deltas over a phase.
type counters struct {
	shmBytes, netBytes int64 // coupled bytes by metered medium
	wireBytes          int64 // bytes on the driver's sockets, both directions
	frames             int64 // read request + segment + control-call frames
	flows              int64 // flow-log entries
	ctlFlows           int64 // control-class flows (DHT requests and responses)
	schedHits          int64
	schedMisses        int64
	spanHits           int64
	spanMisses         int64
}

func (a counters) sub(b counters) counters {
	return counters{
		shmBytes: a.shmBytes - b.shmBytes, netBytes: a.netBytes - b.netBytes,
		wireBytes: a.wireBytes - b.wireBytes, frames: a.frames - b.frames,
		flows: a.flows - b.flows, ctlFlows: a.ctlFlows - b.ctlFlows,
		schedHits: a.schedHits - b.schedHits, schedMisses: a.schedMisses - b.schedMisses,
		spanHits: a.spanHits - b.spanHits, spanMisses: a.spanMisses - b.spanMisses,
	}
}

func (a counters) add(b counters) counters {
	return counters{
		shmBytes: a.shmBytes + b.shmBytes, netBytes: a.netBytes + b.netBytes,
		wireBytes: a.wireBytes + b.wireBytes, frames: a.frames + b.frames,
		flows: a.flows + b.flows, ctlFlows: a.ctlFlows + b.ctlFlows,
		schedHits: a.schedHits + b.schedHits, schedMisses: a.schedMisses + b.schedMisses,
		spanHits: a.spanHits + b.spanHits, spanMisses: a.spanMisses + b.spanMisses,
	}
}

// tcpBase is embedded by the TCP workloads.
type tcpBase struct {
	nc      *nodeCluster
	space   *icods.Space
	handles []*icods.Handle // consumer handles, one per core
	data    field
	last    [][]float64 // outputs of the last step's gets, for verify
}

func (t *tcpBase) start(bin string, side int, seed int64) error {
	nc, err := startNodes(bin, tcpNodes, tcpCores, []int{side, side})
	if err != nil {
		return err
	}
	t.nc = nc
	t.space = nc.fw.SharedSpace()
	t.data = newField(seed)
	for c := 0; c < tcpNodes*tcpCores; c++ {
		t.handles = append(t.handles, t.space.HandleAt(cluster.CoreID(c), appConsumer, "couple"))
	}
	return nil
}

func (t *tcpBase) pids() []int { return t.nc.pids() }

func (t *tcpBase) close() {
	if t.nc != nil {
		t.nc.stop()
	}
}

// stage puts region (filled with variant's cells) into the space from core.
func (t *tcpBase) stage(core cluster.CoreID, v string, version, variant int, region geometry.BBox) error {
	h := t.space.HandleAt(core, appProducer, "stage")
	return h.PutSequential(v, version, region, t.data.fill(variant, region))
}

// snapshot reads the exact counters of both sides: coupled bytes by
// medium, flow-log length, control flows (one per DHT request or response
// frame) and served segments from the children; wire bytes and read request
// frames from the driver's sockets; schedule and span cache hits here.
func (t *tcpBase) snapshot() (counters, error) {
	accounts, err := t.nc.accounts()
	if err != nil {
		return counters{}, err
	}
	w := t.nc.be.WireStats()
	c := counters{wireBytes: w.BytesOut + w.BytesIn, frames: w.ReadRequests + w.ReadMultiRequests}
	for _, acc := range accounts {
		c.shmBytes += acc.Metrics.Bytes[cluster.InterApp][cluster.SharedMemory]
		c.netBytes += acc.Metrics.Bytes[cluster.InterApp][cluster.Network]
		c.flows += int64(len(acc.Metrics.Flows))
		for _, f := range acc.Metrics.Flows {
			if f.Class == cluster.Control.String() {
				c.ctlFlows++
			}
		}
		c.frames += acc.Wire.SegmentsServed
	}
	c.frames += c.ctlFlows
	for _, h := range t.handles {
		c.schedHits += int64(h.CacheHits)
		c.schedMisses += int64(h.CacheMisses)
	}
	hits, misses, _ := sfc.SpanCacheStats()
	c.spanHits, c.spanMisses = int64(hits), int64(misses)
	return c, nil
}

// get performs one consumer get as a timed call of the step: the program's
// GetSequential, or — on the traced run's decomposed steps — the same get
// rebuilt from exported calls with a span around every stage.
func (t *tcpBase) get(sc *stepCtx, g getSpec) error {
	return sc.call("get", func(span int) error {
		var out []float64
		var err error
		if sc.decompose {
			out, err = t.decomposedGet(sc, span, g)
		} else {
			out, err = t.handles[g.core].GetSequential(g.v, g.version, g.region)
		}
		t.last = append(t.last, out)
		return err
	})
}

// bufKey is the exposure key the space gives a stored block. The format is
// the program's own (cods.bufKey is unexported); the traced run checks on
// every decomposed get that a read built with it returns GetSequential's
// bytes, so a drift fails the run instead of skewing it.
func bufKey(v string, region geometry.BBox, version int) transport.BufKey {
	return transport.BufKey{Name: v + "|" + region.String(), Version: version}
}

// batch is the read specs of one get that one node serves.
type batch struct {
	specs  []transport.ReadSpec
	stored []geometry.BBox // the staged block each spec reads from
}

// schedule turns lookup entries into per-node read batches, clipping each
// stored block to the requested region.
func (t *tcpBase) schedule(g getSpec, entries []dht.Entry) ([]batch, error) {
	machine := t.nc.fw.MachineInfo()
	byNode := make(map[cluster.NodeID]int)
	var out []batch
	var covered int64
	for _, e := range entries {
		sub, ok := e.Region.Intersect(g.region)
		if !ok {
			continue
		}
		covered += sub.Volume()
		node := machine.NodeOf(e.Owner)
		i, ok := byNode[node]
		if !ok {
			i = len(out)
			byNode[node] = i
			out = append(out, batch{})
		}
		out[i].specs = append(out[i].specs, transport.ReadSpec{
			Owner: e.Owner, Key: bufKey(g.v, e.Region, g.version), Sub: sub,
			Bytes: sub.Volume() * icods.ElemSize,
		})
		out[i].stored = append(out[i].stored, e.Region)
	}
	if covered != g.region.Volume() {
		return nil, fmt.Errorf("lookup covers %d of %d cells of %v", covered, g.region.Volume(), g.region)
	}
	return out, nil
}

func consumerMeter() transport.Meter {
	return transport.Meter{Phase: "couple", Class: cluster.InterApp, DstApp: appConsumer}
}

// eachBatch runs read on every batch the way the program's pull engine
// issues them: one ReadMulti per node, up to GOMAXPROCS of them at once.
func eachBatch(batches []batch, read func(b batch) error) error {
	if len(batches) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for _, b := range batches {
			if err := read(b); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	for i, b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = read(b)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readMulti is one scatter-gather read of a batch on behalf of core.
func (t *tcpBase) readMulti(core cluster.CoreID, b batch, deliver transport.SegmentFunc) error {
	return t.nc.fw.TransportFabric().Endpoint(core).ReadMulti(b.specs, consumerMeter(), deliver)
}

// scatter decodes an owner-clipped segment (big-endian float64 bits,
// row-major over sub) into its place in dst (row-major over region).
func scatter(dst []float64, region geometry.BBox, seg []byte, sub geometry.BBox) error {
	if int64(len(seg)) != sub.Volume()*icods.ElemSize {
		return fmt.Errorf("segment for %v carries %d bytes", sub, len(seg))
	}
	w, rw := sub.Size(1), region.Size(1)
	off := 0
	for x := sub.Min[0]; x < sub.Max[0]; x++ {
		do := (x-region.Min[0])*rw + sub.Min[1] - region.Min[1]
		for y := 0; y < w; y++ {
			dst[do+y] = math.Float64frombits(binary.BigEndian.Uint64(seg[off:]))
			off += icods.ElemSize
		}
	}
	return nil
}

// decomposedGet rebuilds GetSequential from exported calls — span walk,
// DHT query over TCP, schedule, scatter-gather read, decode — with a span
// around every stage, and returns the assembled region.
func (t *tcpBase) decomposedGet(sc *stepCtx, parent int, g getSpec) ([]float64, error) {
	lookup := t.space.Lookup()
	_ = sc.sub("sfc.spans", parent, func(int) error {
		lookup.Curve().Spans(g.region)
		return nil
	})
	var entries []dht.Entry
	if err := sc.sub("dht.query", parent, func(int) (err error) {
		entries, err = lookup.ClientAt(g.core).Query("couple", appConsumer, g.v, g.version, g.region)
		return err
	}); err != nil {
		return nil, err
	}
	var batches []batch
	if err := sc.sub("cods.schedule", parent, func(int) (err error) {
		batches, err = t.schedule(g, entries)
		return err
	}); err != nil {
		return nil, err
	}
	var out []float64
	err := sc.sub("cods.pull", parent, func(pull int) error {
		out = make([]float64, g.region.Volume())
		return eachBatch(batches, func(b batch) error {
			return sc.sub("tcpnet.readmulti", pull, func(rm int) error {
				return t.readMulti(g.core, b, func(i int, _ any, clipped []byte) error {
					return sc.sub("cods.scatter", rm, func(int) error {
						return scatter(out, g.region, clipped, b.specs[i].Sub)
					})
				})
			})
		})
	})
	return out, err
}

// verifyGets checks the outputs of the last step's gets against the
// generator: cell by cell when full, else by checksum against sums (the
// expected checksum per get, in issue order).
func (t *tcpBase) verifyGets(gets []getSpec, sums []uint64, full bool) error {
	if len(t.last) != len(gets) {
		return fmt.Errorf("step produced %d outputs for %d gets", len(t.last), len(gets))
	}
	for i, g := range gets {
		if full || sums == nil {
			if err := t.data.check(g.variant, g.region, t.last[i]); err != nil {
				return err
			}
			continue
		}
		if got := checksum(t.last[i]); got != sums[i] {
			return fmt.Errorf("get %d of %v: checksum %x, want %x", i, g.region, got, sums[i])
		}
	}
	return nil
}

func regionBytes(gets []getSpec) int64 {
	var n int64
	for _, g := range gets {
		n += g.region.Volume() * icods.ElemSize
	}
	return n
}
