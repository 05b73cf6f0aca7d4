package main

// The three workloads that run through a driver connected to two real
// codsnode processes over loopback TCP. Sizes follow ISSUE 14; the tiny
// scale shrinks the domains for the smoke test and keeps the structure.

import (
	"fmt"
	"math/rand"

	"github.com/insitu/cods/internal/cluster"
	icods "github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
)

// seqBulk: a domain staged once as large blocks; a step is four consumer
// ranks each getting an inset quadrant, so every boundary block is clipped
// by its owner and the schedule cache is warm. tcpnet wire and cods
// clip/scatter do almost all the work.
type seqBulk struct {
	tcpBase
	side, block, inset int
	gets               []getSpec
	sums               []uint64
}

func newSeqBulk(tiny bool) *seqBulk {
	if tiny {
		return &seqBulk{side: 256, block: 32, inset: 4}
	}
	return &seqBulk{side: 2048, block: 256, inset: 16}
}

func (w *seqBulk) setup(bin string, seed int64) error {
	if err := w.start(bin, w.side, seed); err != nil {
		return err
	}
	for i, b := range blocks(w.side, w.block) {
		if err := w.stage(cluster.CoreID(i%len(w.handles)), "u", 0, 0, b); err != nil {
			return err
		}
	}
	for r, q := range insetQuadrants(w.side, w.inset) {
		w.gets = append(w.gets, getSpec{core: cluster.CoreID(r), v: "u", region: q})
		w.sums = append(w.sums, checksum(w.data.fill(0, q)))
	}
	return nil
}

func (w *seqBulk) step(_ int, sc *stepCtx) error {
	w.last = w.last[:0]
	for _, g := range w.gets {
		if err := w.get(sc, g); err != nil {
			return err
		}
	}
	return nil
}

func (w *seqBulk) verify(_ int, full bool) error { return w.verifyGets(w.gets, w.sums, full) }
func (w *seqBulk) stepBytes() int64              { return regionBytes(w.gets) }
func (w *seqBulk) probeGets() []getSpec          { return w.gets }
func (w *seqBulk) blockSide() int                { return w.block }

// invariants: the timed phase issues no DHT query — every get is served
// from the warm schedule cache.
func (w *seqBulk) invariants(d counters, steps int) []string {
	var bad []string
	if d.schedMisses != 0 || d.ctlFlows != 0 {
		bad = append(bad, fmt.Sprintf("seq-bulk-tcp: %d schedule misses and %d control flows in the timed phase, want 0",
			d.schedMisses, d.ctlFlows))
	}
	if want := int64(steps * len(w.gets)); d.schedHits != want {
		bad = append(bad, fmt.Sprintf("seq-bulk-tcp: %d schedule hits, want %d", d.schedHits, want))
	}
	return bad
}

// seqLookup: a domain staged as many small blocks; a step is 16 gets of
// seeded random regions that never repeat, so every get misses the schedule
// cache and pays span walk + DHT query over TCP + gob for a few KB of
// payload. sfc, dht, transport encode and per-frame latency dominate.
type seqLookup struct {
	tcpBase
	side, block, minSide, maxSide int
	seed                          int64
	used                          map[string]bool
	cur                           []getSpec
}

const lookupGetsPerStep = 16

func newSeqLookup(tiny bool) *seqLookup {
	w := &seqLookup{side: 512, block: 16, minSide: 17, maxSide: 32}
	if tiny {
		w = &seqLookup{side: 128, block: 8, minSide: 9, maxSide: 16}
	}
	w.used = make(map[string]bool)
	return w
}

func (w *seqLookup) setup(bin string, seed int64) error {
	w.seed = seed
	if err := w.start(bin, w.side, seed); err != nil {
		return err
	}
	for i, b := range blocks(w.side, w.block) {
		if err := w.stage(cluster.CoreID(i%len(w.handles)), "u", 0, 0, b); err != nil {
			return err
		}
	}
	return nil
}

// regions draws step i's gets. Blocks are dealt round-robin over the four
// cores along the last dimension, so ownership alternates between the two
// nodes in stripes two blocks wide; each drawn region is paired with its
// copy shifted by one stripe and read from the same core, which makes
// exactly half of every pair's bytes node-local whatever the seed draws.
// The no-repeat filter makes a draw depend on the draws before it, so each
// step is drawn exactly once, in step order.
func (w *seqLookup) regions(i int) []getSpec {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	shift := 2 * w.block
	var gets []getSpec
	for len(gets) < lookupGetsPerStep {
		h := w.minSide + rng.Intn(w.maxSide-w.minSide+1)
		wd := w.minSide + rng.Intn(w.maxSide-w.minSide+1)
		x := rng.Intn(w.side - h + 1)
		y := rng.Intn(w.side - shift - wd + 1)
		a, b := box(x, y, x+h, y+wd), box(x, y+shift, x+h, y+shift+wd)
		if w.used[a.String()] || w.used[b.String()] {
			continue
		}
		w.used[a.String()], w.used[b.String()] = true, true
		core := cluster.CoreID((len(gets) / 2) % (tcpNodes * tcpCores))
		gets = append(gets, getSpec{core: core, v: "u", region: a}, getSpec{core: core, v: "u", region: b})
	}
	return gets
}

func (w *seqLookup) step(i int, sc *stepCtx) error {
	w.cur = w.regions(i)
	w.last = w.last[:0]
	for _, g := range w.cur {
		if err := w.get(sc, g); err != nil {
			return err
		}
	}
	return nil
}

// verify compares every get cell by cell: the regions are small and never
// repeat, so there is no precomputed checksum to compare with.
func (w *seqLookup) verify(int, bool) error { return w.verifyGets(w.cur, nil, true) }
func (w *seqLookup) stepBytes() int64       { return regionBytes(w.cur) }
func (w *seqLookup) blockSide() int         { return w.block }

// probeGets draws from step indices far beyond any timed step, so the
// probes also see regions no get has touched.
func (w *seqLookup) probeGets() []getSpec {
	var out []getSpec
	for i := 0; i < 4; i++ {
		out = append(out, w.regions(1<<30+i)...)
	}
	return out
}

// invariants: every get of the timed phase is a schedule-cache miss.
func (w *seqLookup) invariants(d counters, steps int) []string {
	if want := int64(steps * lookupGetsPerStep); d.schedMisses != want || d.schedHits != 0 {
		return []string{fmt.Sprintf("seq-lookup-tcp: %d schedule misses and %d hits, want %d and 0",
			d.schedMisses, d.schedHits, want)}
	}
	return nil
}

// streamLockstep: one stream with four producer ranks; a step publishes a
// version (four blocks), reads its inset through a cursor and advances,
// which retires and discards it. All calls come from one goroutine, so none
// ever blocks on the lag bound. It drives the same layers for writes beside
// reads: expose/gob of stored blocks, DHT insert and remove, discard,
// stream notify ops.
type streamLockstep struct {
	tcpBase
	side, inset int
	quads       []geometry.BBox
	bufs        [2][][]float64 // pre-built producer blocks per data variant
	producers   []*icods.Handle
	cursor      *icods.Cursor
	region      geometry.BBox
	sums        [2]uint64
	version     int
	maxRetained int
}

const (
	streamVar    = "s"
	streamMaxLag = 2
)

func newStreamLockstep(tiny bool) *streamLockstep {
	if tiny {
		return &streamLockstep{side: 128, inset: 4}
	}
	return &streamLockstep{side: 1024, inset: 16}
}

func (w *streamLockstep) setup(bin string, seed int64) error {
	if err := w.start(bin, w.side, seed); err != nil {
		return err
	}
	w.quads = insetQuadrants(w.side, 0)
	err := w.nc.fw.DeclareStream(streamVar, icods.StreamConfig{
		Producers: len(w.quads), MaxLag: streamMaxLag, Policy: icods.Backpressure})
	if err != nil {
		return err
	}
	w.region = box(w.inset, w.inset, w.side-w.inset, w.side-w.inset)
	for variant := range w.bufs {
		for _, q := range w.quads {
			w.bufs[variant] = append(w.bufs[variant], w.data.fill(variant, q))
		}
		w.sums[variant] = checksum(w.data.fill(variant, w.region))
	}
	for r := range w.quads {
		w.producers = append(w.producers, w.space.HandleAt(cluster.CoreID(r), appProducer, "stream"))
	}
	w.cursor, err = w.handles[0].Subscribe(streamVar)
	return err
}

func (w *streamLockstep) step(_ int, sc *stepCtx) error {
	v, variant := w.version, w.version%2
	w.last = w.last[:0]
	for r, q := range w.quads {
		// The TCP backend serializes the block inside Expose, so the
		// pre-built buffer is free for reuse as soon as Publish returns.
		err := sc.call("publish", func(int) error {
			got, err := w.producers[r].Publish(streamVar, r, q, w.bufs[variant][r])
			if err == nil && got != v {
				err = fmt.Errorf("publish stamped version %d, want %d", got, v)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	g := getSpec{core: 0, v: streamVar, version: v, region: w.region, variant: variant}
	if sc.decompose {
		if err := w.get(sc, g); err != nil {
			return err
		}
	} else {
		err := sc.call("window", func(int) error {
			out, err := w.cursor.GetWindow(w.region, v, v)
			if err == nil {
				w.last = append(w.last, out[0])
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	// Retention is read before the advance retires v: it must never exceed
	// the lag bound, or a Publish could have blocked.
	if latest, floor, err := w.nc.fw.StreamState(streamVar); err == nil && latest-floor+1 > w.maxRetained {
		w.maxRetained = latest - floor + 1
	}
	w.version++
	return sc.call("advance", func(int) error { return w.cursor.Advance(v + 1) })
}

func (w *streamLockstep) verify(_ int, full bool) error {
	variant := (w.version - 1) % 2
	g := []getSpec{{region: w.region, variant: variant}}
	return w.verifyGets(g, []uint64{w.sums[variant]}, full)
}

// stepBytes counts the bytes staged by the producers beside the bytes
// delivered to the consumer: this workload measures writes beside reads.
func (w *streamLockstep) stepBytes() int64 {
	return (int64(w.side*w.side) + w.region.Volume()) * icods.ElemSize
}

func (w *streamLockstep) blockSide() int { return w.side / 2 }

// probeGets publishes one more version and leaves it retained, so the
// probes have a live version to read.
func (w *streamLockstep) probeGets() []getSpec {
	v, variant := w.version, w.version%2
	for r, q := range w.quads {
		if _, err := w.producers[r].Publish(streamVar, r, q, w.bufs[variant][r]); err != nil {
			return nil
		}
	}
	w.version++
	return []getSpec{{core: 0, v: streamVar, version: v, region: w.region, variant: variant}}
}

// invariants: retained versions never exceeded MaxLag, so no call blocked.
func (w *streamLockstep) invariants(counters, int) []string {
	if w.maxRetained > streamMaxLag {
		return []string{fmt.Sprintf("stream-lockstep-tcp: %d versions retained, lag bound is %d", w.maxRetained, streamMaxLag)}
	}
	return nil
}
