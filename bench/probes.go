package main

// Per-layer probes of the traced run. Each one times calls into a
// package's exported functions from here, on the inputs the workload uses
// (its get regions, its block size, its live staged data), after the
// segments are done. A layer that is not on the workload's path is left
// unmeasured and reads 0.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/cluster"
	icods "github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/transport"
)

// tcpProber is a TCP workload seen by the probes.
type tcpProber interface {
	base() *tcpBase
	// probeGets returns gets over live data that represent a step.
	probeGets() []getSpec
	// blockSide is the side of the blocks the workload stages.
	blockSide() int
}

func (t *tcpBase) base() *tcpBase { return t }

// probeSamples is how many samples a probe collects at least.
const probeSamples = 32

// us returns the microseconds since t0.
func us(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// probeLayers runs every probe that applies to w and returns warnings.
func probeLayers(cfg runConfig, w workload, rec *recorder, m map[string]float64, samples map[string]int) []string {
	total, _ := rec.durations()
	for span, metric := range map[string]string{"publish": "cods.publish_us", "window": "cods.window_us", "advance": "cods.advance_us"} {
		if d := total[span]; len(d) > 0 {
			m[metric], samples[metric] = median(d), len(d)
		}
	}
	probeRecord(m)
	probeLocalRead(m)
	var warn []string
	switch p := w.(type) {
	case tcpProber:
		if err := probeTCP(p, m, samples); err != nil {
			return []string{"probes: " + err.Error()}
		}
		// The decomposed get's stages, end to end, against the program's
		// own get on a schedule-cache miss.
		var sum float64
		for _, stage := range []string{"sfc.spans", "dht.query", "cods.schedule", "cods.pull"} {
			sum += median(total[stage])
		}
		m["trace.layers_sum_ratio"] = sum / m["cods.get_miss_us"]
		if r := m["trace.layers_sum_ratio"]; (r < 0.8 || r > 1.2) && !cfg.Tiny {
			fmt.Printf("warning: %s: decomposed stages sum to %.2f of cods.get_miss_us (expected 0.8-1.2)\n", cfg.Workload, r)
		}
	case *workflowInproc:
		if err := probeInproc(p, m, samples); err != nil {
			warn = append(warn, "probes: "+err.Error())
		}
	}
	return warn
}

// probeTCP measures the sfc, dht, cods, transport and tcpnet layers through
// the workload's live cluster.
func probeTCP(p tcpProber, m map[string]float64, samples map[string]int) error {
	t := p.base()
	gets := p.probeGets()
	if len(gets) == 0 {
		return fmt.Errorf("no probe gets")
	}
	reps := (probeSamples + len(gets) - 1) / len(gets)
	lookup := t.space.Lookup()

	// Lookup path, stage by stage, then the program's own get on a miss
	// and on a hit, then the bare scatter-gather read of the same specs.
	var spansUs, nSpans, queryUs, nEntries, missUs, hitUs, readUs, readBytes []float64
	var first []batch
	for r := 0; r < reps; r++ {
		for _, g := range gets {
			t0 := time.Now()
			spans := lookup.Curve().Spans(g.region)
			spansUs, nSpans = append(spansUs, us(t0)), append(nSpans, float64(len(spans)))

			t0 = time.Now()
			entries, err := lookup.ClientAt(g.core).Query("probe", appConsumer, g.v, g.version, g.region)
			if err != nil {
				return err
			}
			queryUs, nEntries = append(queryUs, us(t0)), append(nEntries, float64(len(entries)))
			batches, err := t.schedule(g, entries)
			if err != nil {
				return err
			}
			if first == nil {
				first = batches
			}

			h := t.space.HandleAt(g.core, appConsumer, "probe")
			t.space.InvalidateSchedules(g.v)
			t0 = time.Now()
			out, err := h.GetSequential(g.v, g.version, g.region)
			if err != nil {
				return err
			}
			missUs = append(missUs, us(t0))
			if err := t.data.check(g.variant, g.region, out); err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := h.GetSequential(g.v, g.version, g.region); err != nil {
				return err
			}
			hitUs = append(hitUs, us(t0))
			if h.CacheHits != 1 || h.CacheMisses != 1 {
				return fmt.Errorf("probe get saw %d hits and %d misses, want 1 and 1", h.CacheHits, h.CacheMisses)
			}

			discard := func(int, any, []byte) error { return nil }
			t0 = time.Now()
			err = eachBatch(batches, func(b batch) error { return t.readMulti(g.core, b, discard) })
			if err != nil {
				return err
			}
			readUs = append(readUs, us(t0))
			readBytes = append(readBytes, float64(g.region.Volume()*icods.ElemSize))
		}
	}
	set := func(name string, xs []float64) { m[name], samples[name] = median(xs), len(xs) }
	set("sfc.spans_us", spansUs)
	m["sfc.spans_per_query"] = mean(nSpans)
	set("dht.query_us", queryUs)
	m["dht.entries_per_query"] = mean(nEntries)
	set("cods.get_miss_us", missUs)
	set("cods.get_hit_us", hitUs)
	m["cods.lookup_share"] = (m["cods.get_miss_us"] - m["cods.get_hit_us"]) / m["cods.get_miss_us"]
	set("tcpnet.readmulti_us", readUs)
	m["tcpnet.readmulti_gbps"] = mean(readBytes) / (m["tcpnet.readmulti_us"] * 1e3)
	m["cods.scatter_us"] = m["cods.get_hit_us"] - m["tcpnet.readmulti_us"]

	// Owner-side clipping of the first get's block/sub pairs, in process.
	m["cods.clip_gbps"] = probeClip(t.data, first)

	// The smallest frame there is: an existence check of an absent buffer.
	var rtt []float64
	for i := 0; i < 4*probeSamples; i++ {
		t0 := time.Now()
		if _, err := t.nc.be.Exposed(0, transport.BufKey{Name: "bench.rtt"}); err != nil {
			return err
		}
		rtt = append(rtt, us(t0))
	}
	set("tcpnet.rtt_us", rtt)

	// Location records and staged blocks of the workload's block size.
	side := p.blockSide()
	var insertUs, removeUs, putUs, discardUs []float64
	cl := lookup.ClientAt(0)
	tiles := blocks(t.nc.fw.Domain().Size(0), side)
	for i := 0; i < 2*probeSamples; i++ {
		e := dht.Entry{Var: "bench.entry", Region: tiles[i%len(tiles)], Owner: cluster.CoreID(i % len(t.handles))}
		t0 := time.Now()
		if err := cl.Insert("probe", appProducer, e); err != nil {
			return err
		}
		insertUs = append(insertUs, us(t0))
		t0 = time.Now()
		if err := cl.Remove("probe", appProducer, e); err != nil {
			return err
		}
		removeUs = append(removeUs, us(t0))
	}
	set("dht.insert_us", insertUs)
	set("dht.remove_us", removeUs)
	data := t.data.fill(0, tiles[0])
	for i := 0; i < probeSamples/2; i++ {
		h := t.space.HandleAt(cluster.CoreID(i%len(t.handles)), appProducer, "probe")
		t0 := time.Now()
		if err := h.PutSequential("bench.put", i, tiles[0], data); err != nil {
			return err
		}
		putUs = append(putUs, us(t0))
		t0 = time.Now()
		if err := h.DiscardSequential("bench.put", i, tiles[0]); err != nil {
			return err
		}
		discardUs = append(discardUs, us(t0))
	}
	set("cods.put_us", putUs)
	set("cods.discard_us", discardUs)

	return probeEncode(t, gets[0], m, samples)
}

// probeClip times StoredObject.ClipRegion over the block/sub pairs of one
// get's schedule and returns GB/s of clipped bytes.
func probeClip(data field, batches []batch) float64 {
	type pair struct {
		obj *icods.StoredObject
		sub geometry.BBox
	}
	var pairs []pair
	var bytes int64
	for _, b := range batches {
		for i, spec := range b.specs {
			pairs = append(pairs, pair{&icods.StoredObject{Region: b.stored[i], Data: data.fill(0, b.stored[i])}, spec.Sub})
			bytes += spec.Bytes
		}
	}
	var buf []byte
	var moved int64
	t0 := time.Now()
	for time.Since(t0) < 30*time.Millisecond {
		for _, p := range pairs {
			buf, _ = p.obj.ClipRegion(buf[:0], p.sub) // sub lies inside the block: no error to report
		}
		moved += bytes
	}
	return float64(moved) / time.Since(t0).Seconds() / 1e9
}

// captureBackend forwards to the real backend and keeps the first RPC
// request and response that cross it.
type captureBackend struct {
	transport.Backend
	once      sync.Once
	req, resp any
}

func (c *captureBackend) Call(src, dst cluster.CoreID, service string, request any, mt transport.Meter, reqBytes, respBytes int64) (any, error) {
	resp, err := c.Backend.Call(src, dst, service, request, mt, reqBytes, respBytes)
	if err == nil {
		c.once.Do(func() { c.req, c.resp = request, resp })
	}
	return resp, err
}

// probeEncode captures a real DHT query and its response off the wire path
// and times the payload codec on them: what every control RPC pays on both
// sides of the socket.
func probeEncode(t *tcpBase, g getSpec, m map[string]float64, samples map[string]int) error {
	fab := t.nc.fw.TransportFabric()
	capture := &captureBackend{Backend: t.nc.be}
	fab.SetBackend(capture)
	_, err := t.space.Lookup().ClientAt(g.core).Query("probe", appConsumer, g.v, g.version, g.region)
	fab.SetBackend(t.nc.be)
	if err != nil {
		return err
	}
	if capture.req == nil {
		return fmt.Errorf("no DHT call crossed the backend")
	}
	roundTrip := func() error {
		for _, v := range []any{capture.req, capture.resp} {
			enc, err := transport.EncodePayload(v)
			if err != nil {
				return err
			}
			if _, err := transport.DecodePayload(enc); err != nil {
				return err
			}
		}
		return nil
	}
	var encUs []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 4*probeSamples; i++ {
		t0 := time.Now()
		if err := roundTrip(); err != nil {
			return err
		}
		encUs = append(encUs, us(t0))
	}
	runtime.ReadMemStats(&ms1)
	m["transport.encode_us"], samples["transport.encode_us"] = median(encUs), len(encUs)
	m["transport.encode_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(encUs))
	return nil
}

// probeLocalRead times the in-process Endpoint.ReadMulti of an inset of a
// 256×256 block between two cores of one node, rows copied out the way a
// reader would.
func probeLocalRead(m map[string]float64) {
	machine, err := cluster.NewMachine(1, 2)
	if err != nil {
		return
	}
	fab := transport.NewFabric(machine)
	block, sub := box(0, 0, 256, 256), box(8, 8, 248, 248)
	key := transport.BufKey{Name: "bench.local"}
	obj := &icods.StoredObject{Region: block, Data: make([]float64, block.Volume())}
	if err := fab.Endpoint(0).Expose(key, obj); err != nil {
		return
	}
	specs := []transport.ReadSpec{{Owner: 0, Key: key, Sub: sub, Bytes: sub.Volume() * icods.ElemSize}}
	out := make([]float64, sub.Volume())
	w := sub.Size(1)
	deliver := func(_ int, payload any, _ []byte) error {
		src := payload.(*icods.StoredObject)
		for x := sub.Min[0]; x < sub.Max[0]; x++ {
			so := (x-block.Min[0])*block.Size(1) + sub.Min[1] - block.Min[1]
			copy(out[(x-sub.Min[0])*w:][:w], src.Data[so:so+w])
		}
		return nil
	}
	var moved int64
	t0 := time.Now()
	for time.Since(t0) < 30*time.Millisecond {
		if err := fab.Endpoint(1).ReadMulti(specs, transport.Meter{Phase: "probe"}, deliver); err != nil {
			return
		}
		moved += specs[0].Bytes
	}
	m["transport.local_read_gbps"] = float64(moved) / time.Since(t0).Seconds() / 1e9
}

// probeRecord times cluster.Metrics.Record, the accounting every transfer
// pays, from one goroutine and from two contending ones.
func probeRecord(m map[string]float64) {
	const n = 200_000
	record := func(mt *cluster.Metrics, k int) {
		for i := 0; i < k; i++ {
			mt.Record("probe", cluster.InterApp, cluster.Network, 2, 0, 1, 4096)
		}
	}
	mt := cluster.NewMetrics()
	t0 := time.Now()
	record(mt, n)
	m["cluster.record_ns"] = float64(time.Since(t0).Nanoseconds()) / n

	mt = cluster.NewMetrics()
	var wg sync.WaitGroup
	t0 = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			record(mt, n/2)
		}()
	}
	wg.Wait()
	m["cluster.record2_ns"] = float64(time.Since(t0).Nanoseconds()) / n
}

// probeInproc measures the mapping and runtime layers on the workflow's
// own applications.
func probeInproc(w *workflowInproc, m map[string]float64, samples map[string]int) error {
	apps := []graph.App{{ID: 1, Decomp: w.decomp[0]}, {ID: 2, Decomp: w.decomp[1]}, {ID: 3, Decomp: w.decomp[2]}}
	fw, _, err := w.run() // leaves variable "s" staged for the client-side mapping
	if err != nil {
		return err
	}
	machine := fw.MachineInfo()
	bundle := mapping.Bundle{Apps: apps[:2], Couplings: [][2]int{{1, 2}}}
	var serverMs, clientMs, emptyMs []float64
	var pl, clientPl *cluster.Placement
	for i := 0; i < probeSamples; i++ {
		t0 := time.Now()
		if pl, err = mapping.ServerDataCentric(machine, bundle, nil, cods.ElemSize, 1); err != nil {
			return err
		}
		serverMs = append(serverMs, us(t0)/1e3)
		t0 = time.Now()
		consumers := []mapping.Consumer{{App: apps[2], Var: "s"}}
		if clientPl, err = mapping.ClientDataCentric(machine, fw.SharedSpace().Lookup(), consumers, nil, "probe"); err != nil {
			return err
		}
		clientMs = append(clientMs, us(t0)/1e3)
	}
	m["mapping.server_ms"], samples["mapping.server_ms"] = median(serverMs), len(serverMs)
	m["mapping.client_ms"], samples["mapping.client_ms"] = median(clientMs), len(clientMs)
	// What the two placements predict for a step: four concurrently coupled
	// versions under the server-side placement, one staged version read
	// under the client-side one.
	bundled, err := mapping.CoupledTraffic(machine, pl, pl, apps[0], apps[1], cods.ElemSize)
	if err != nil {
		return err
	}
	staged, err := mapping.CoupledTraffic(machine, pl, clientPl, apps[0], apps[2], cods.ElemSize)
	if err != nil {
		return err
	}
	m["mapping.net_fraction"] = float64(inprocVersions*bundled.Network+staged.Network) /
		float64(inprocVersions*bundled.Total()+staged.Total())

	w.noop = true
	defer func() { w.noop = false }()
	for i := 0; i < probeSamples; i++ {
		t0 := time.Now()
		if _, _, err := w.run(); err != nil {
			return err
		}
		emptyMs = append(emptyMs, us(t0)/1e3)
	}
	m["runtime.empty_run_ms"], samples["runtime.empty_run_ms"] = median(emptyMs), len(emptyMs)
	m["runtime.tasks_per_step"] = float64(w.tasks)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
