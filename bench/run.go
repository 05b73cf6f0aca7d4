package main

// One run of one workload in this process: set-up, warm-up, the timed
// segments, and the arithmetic that turns step times and exact counters
// into the declared metrics.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is what the runner drives. step issues the calls of one step
// through sc, which times them; everything else — drawing regions, keeping
// outputs, verify, snapshot — happens outside the timed interval.
type workload interface {
	setup(codsnode string, seed int64) error
	step(i int, sc *stepCtx) error
	// verify checks the outputs of the step just run: by checksum, or cell
	// by cell when full.
	verify(i int, full bool) error
	// stepBytes is the coupled payload of the step just run.
	stepBytes() int64
	snapshot() (counters, error)
	pids() []int
	// invariants returns what the timed phase violated, given the counter
	// deltas over it and its step count.
	invariants(d counters, steps int) []string
	close()
}

// runConfig selects one run.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Tiny     bool
	Codsnode string
	OutDir   string // where the traced run writes its spans ("" = nowhere)
}

// The fixed work of an untraced run: sixteen equal segments, two on each of
// eight fresh set-ups of the workload. A rate or latency metric is the
// median over the segments of the per-segment value, so up to seven
// disturbed segments do not move it, and whatever a process picks up for
// life when it starts — address layout, which CPU a child first lands on —
// is drawn eight times instead of once. setup_s is the median of the eight
// set-ups.
const (
	incarnations    = 8
	segmentsPerLife = 2
)

// tracedSegments is how many segments the traced run measures with spans
// on, alternating with as many untraced ones, on a single set-up.
const tracedSegments = 3

// plan is the fixed work of a run.
type plan struct {
	lives    int // fresh set-ups of the workload
	warmup   int // fully verified steps after each set-up, before its first timed one
	segments int // per set-up
	perSeg   int
}

func planFor(def workloadDef, cfg runConfig) plan {
	if cfg.Tiny {
		// Four steps per segment, so that a traced segment has a decomposed one.
		return plan{lives: 1, warmup: 1, segments: 2, perSeg: 4}
	}
	// Warm-up is work-based: at least 0.3 s worth of steps on the
	// reference box, so caches fill and lazy set-up finishes.
	p := plan{
		lives:    incarnations,
		warmup:   max(2, int(math.Ceil(0.3*def.RefRate))),
		segments: segmentsPerLife,
		perSeg:   max(2, int(math.Round(def.RefRate*cfg.Seconds/(incarnations*segmentsPerLife)))),
	}
	if cfg.Trace {
		// Two thirds of -seconds in segments, half of them traced; the
		// probes take about the rest.
		p.lives, p.segments = 1, 2*tracedSegments
		p.perSeg = max(4, int(math.Round(def.RefRate*cfg.Seconds/(3*tracedSegments))))
	}
	return p
}

func (p plan) String() string {
	return fmt.Sprintf("%d set-ups x (%d warm-up + %d segments x %d steps)", p.lives, p.warmup, p.segments, p.perSeg)
}

// segStat is what one segment measured.
type segStat struct {
	traced bool
	steps  []float64 // step times, ms (every step of an untraced segment; the undecomposed ones of a traced one)
	probes []float64 // host probes taken between the steps, ms
	bytes  int64     // coupled payload of those steps
	cpuDrv float64   // CPU seconds of the driver over the segment
	cpuKid float64   // CPU seconds of the children over the segment
}

func (s segStat) sum() float64 {
	var t float64
	for _, d := range s.steps {
		t += d
	}
	return t
}

// rawRate is steps per wall-clock second of step time.
func (s segStat) rawRate() float64 { return float64(len(s.steps)) / (s.sum() / 1e3) }

// index is the host-speed index over the segment.
func (s segStat) index() float64 { return hostIndex(s.probes) }

// rate is steps per second of step time on the quiet reference box.
func (s segStat) rate() float64 { return s.rawRate() * s.index() }

// result is everything one run measured.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]value    `json:"metrics"`
	Samples   map[string]int      `json:"samples"`
	Counts    map[string]float64  `json:"counts"`
	Raw       map[string]float64  `json:"raw_wall_clock"` // the timing metrics before the host-speed index
	SegRates  []float64           `json:"segment_steps_per_s"`
	SegIndex  []float64           `json:"segment_host_index"`
	Spans     map[string]spanStat `json:"spans,omitempty"`
	Problems  []string            `json:"problems,omitempty"`
	Plan      string              `json:"plan"`
}

// session is one set-up workload plus the bookkeeping of its steps.
type session struct {
	w        workload
	next     int // next step index
	attempts int
	failures int
	problems []string
}

// open sets a workload up and runs its warm-up steps, each verified cell
// by cell; it returns how long that took and the host-speed index over it,
// from a probe before, between and after the two.
func open(def workloadDef, cfg runConfig, p plan) (*session, time.Duration, float64, error) {
	probes := []float64{probeMs()}
	t0 := time.Now()
	w := def.New(cfg.Tiny)
	s := &session{w: w}
	if err := w.setup(cfg.Codsnode, cfg.Seed); err != nil {
		w.close()
		return nil, 0, 0, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
	}
	dur := time.Since(t0)
	probes = append(probes, probeMs())
	t0 = time.Now()
	for i := 0; i < p.warmup; i++ {
		sc := &stepCtx{step: s.next}
		err := w.step(s.next, sc)
		if err == nil {
			err = w.verify(s.next, true)
		}
		s.next++
		if err != nil {
			w.close()
			return nil, 0, 0, fmt.Errorf("%s: warm-up step %d: %w", cfg.Workload, i, err)
		}
	}
	dur += time.Since(t0)
	probes = append(probes, probeMs())
	return s, dur, hostIndex(probes), nil
}

func (s *session) fail(step int, err error) {
	s.failures++
	if len(s.problems) < 8 {
		s.problems = append(s.problems, fmt.Sprintf("step %d: %v", step, err))
	}
}

// cpuNow samples the CPU seconds of this process and of the children.
func cpuNow(pids []int) (drv, kids float64) {
	drv, _ = procCPU(os.Getpid())
	for _, pid := range pids {
		c, _ := procCPU(pid)
		kids += c
	}
	return drv, kids
}

// segment runs n steps. With rec set, every step is traced and every
// fourth has its gets decomposed; decomposed steps are verified like any
// other but left out of the segment's times, so the traced/untraced rate
// ratio is the cost of recording spans, not of the rebuilt get.
func (s *session) segment(n int, rec *recorder) segStat {
	st := segStat{traced: rec != nil}
	drv0, kid0 := cpuNow(s.w.pids())
	sinceProbe := math.Inf(1)
	for k := 0; k < n; k++ {
		if sinceProbe >= probeEveryMs {
			st.probes = append(st.probes, probeMs())
			sinceProbe = 0
		}
		i := s.next
		s.next++
		s.attempts++
		sc := &stepCtx{rec: rec, step: i, decompose: rec != nil && k%4 == 3}
		if rec != nil {
			sc.root = rec.start("step", 0, i)
		}
		err := s.w.step(i, sc)
		if rec != nil {
			rec.finish(sc.root)
		}
		if err == nil {
			// One step per segment is compared cell by cell, the rest by
			// checksum; decomposed gets always cell by cell, since they are
			// the check that the rebuilt get returns GetSequential's bytes.
			err = s.w.verify(i, k == 0 || sc.decompose)
		}
		if err != nil {
			s.fail(i, err)
			continue
		}
		sinceProbe += float64(sc.dur.Nanoseconds()) / 1e6
		if !sc.decompose {
			st.steps = append(st.steps, float64(sc.dur.Nanoseconds())/1e6)
			st.bytes += s.w.stepBytes()
		}
	}
	drv1, kid1 := cpuNow(s.w.pids())
	// The probes so far ran inside the CPU window and are not the program's.
	var probed float64
	for _, p := range st.probes {
		probed += p / 1e3
	}
	st.cpuDrv, st.cpuKid = math.Max(drv1-drv0-probed, 0), kid1-kid0
	st.probes = append(st.probes, probeMs())
	return st
}

// tally is what a run accumulates over its set-ups.
type tally struct {
	segs      []segStat
	setups    []float64 // seconds
	setupIdx  []float64 // host-speed index over each set-up
	delta     counters  // exact counters over the untraced segments
	steps     int       // steps of the untraced segments
	heap      heapDelta
	attempts  int
	failures  int
	problems  []string
	peakChild float64 // MB
}

// heapDelta is the driver's allocation activity over the untraced segments.
type heapDelta struct{ allocs, bytes, gcs uint64 }

// life sets the workload up once, runs the plan's segments on it and tears
// it down. In the traced run odd segments record spans, the host probes run
// between segments, and probe runs on the live workload before teardown.
func (t *tally) life(def workloadDef, cfg runConfig, p plan, rec *recorder, host *hostProbe, probe func(workload) []string) error {
	s, setupDur, setupIdx, err := open(def, cfg, p)
	if err != nil {
		return err
	}
	defer s.w.close()
	t.setups, t.setupIdx = append(t.setups, setupDur.Seconds()), append(t.setupIdx, setupIdx)
	var delta counters
	steps := 0
	var mem0, mem1 runtime.MemStats
	before, err := s.w.snapshot()
	if err != nil {
		return err
	}
	for seg := 0; seg < p.segments; seg++ {
		traced := rec != nil && seg%2 == 1
		var st segStat
		if traced {
			st = s.segment(p.perSeg, rec)
		} else {
			runtime.ReadMemStats(&mem0)
			st = s.segment(p.perSeg, nil)
			runtime.ReadMemStats(&mem1)
			t.heap.allocs += mem1.Mallocs - mem0.Mallocs
			t.heap.bytes += mem1.TotalAlloc - mem0.TotalAlloc
			t.heap.gcs += uint64(mem1.NumGC - mem0.NumGC)
		}
		after, err := s.w.snapshot()
		if err != nil {
			return err
		}
		if !traced {
			delta = delta.add(after.sub(before))
			steps += p.perSeg
		}
		before = after
		t.segs = append(t.segs, st)
		host.between()
	}
	t.delta, t.steps = t.delta.add(delta), t.steps+steps
	t.attempts, t.failures = t.attempts+s.attempts, t.failures+s.failures
	t.problems = append(t.problems, s.problems...)
	t.problems = append(t.problems, s.w.invariants(delta, steps)...)
	for _, pid := range s.w.pids() {
		t.peakChild = math.Max(t.peakChild, procPeakRSS(pid))
	}
	if probe != nil {
		t.problems = append(t.problems, probe(s.w)...)
	}
	return nil
}

// runWorkload performs one run and returns its result.
func runWorkload(cfg runConfig) (*result, error) {
	def, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	p := planFor(def, cfg)
	measured := map[string]float64{}
	samples := map[string]int{}
	counts := map[string]float64{}
	var t tally
	var rec *recorder
	if !cfg.Trace {
		for i := 0; i < p.lives; i++ {
			if err := t.life(def, cfg, p, nil, nil, nil); err != nil {
				return nil, err
			}
		}
	} else {
		rec = newRecorder()
		host := newHostProbe()
		defer host.close()
		err := t.life(def, cfg, p, rec, host, func(w workload) []string {
			host.report(measured)
			return probeLayers(cfg, w, rec, measured, samples)
		})
		if err != nil {
			return nil, err
		}
		if cfg.OutDir != "" {
			if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
				return nil, err
			}
			if err := rec.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".jsonl")); err != nil {
				return nil, err
			}
		}
	}

	var untraced, traced []segStat
	for _, st := range t.segs {
		if st.traced {
			traced = append(traced, st)
		} else {
			untraced = append(untraced, st)
		}
	}
	raw := map[string]float64{}
	endToEndMetrics(measured, raw, samples, untraced, &t)
	driverMetrics(measured, counts, untraced, &t)
	if cfg.Trace {
		measured["host.speed_index"] = raw["host_index"]
		measured["trace.overhead_ratio"] = medianOf(traced, segStat.rate) / medianOf(untraced, segStat.rate)
		// Both sides of this ratio are wall-clock readings of one process.
		if hg := measured["host.loopback_gbps"]; hg > 0 && t.delta.wireBytes > 0 {
			measured["tcpnet.loopback_efficiency"] = raw["coupled_gbps"] / hg
		}
	}

	res := &result{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
		Attempted: t.attempts, Failed: t.failures,
		Samples: samples, Counts: counts, Raw: raw, Problems: t.problems, Plan: p.String(),
	}
	for _, st := range untraced {
		res.SegRates, res.SegIndex = append(res.SegRates, st.rate()), append(res.SegIndex, st.index())
	}
	defs := endToEnd
	if cfg.Trace {
		defs, res.Spans = perLayer, rec.stats()
	}
	var broken []string
	res.Metrics, broken = pick(defs, measured)
	res.Problems = append(res.Problems, broken...)
	res.Correct = t.failures == 0 && len(res.Problems) == 0
	return res, nil
}

// endToEndMetrics fills the seven user-visible metrics from the untraced
// segments. The timing metrics are stated on the quiet reference box: each
// segment's readings are scaled by the host-speed index over that segment,
// each set-up's by the index over that set-up, before the medians are taken.
// raw receives the same metrics from the wall-clock readings alone.
func endToEndMetrics(m, raw map[string]float64, samples map[string]int, segs []segStat, t *tally) {
	gbps := func(st segStat) float64 { return float64(st.bytes) / (st.sum() / 1e3) / 1e9 }
	p50 := func(st segStat) float64 { return median(st.steps) }
	m["steps_per_s"] = medianOf(segs, segStat.rate)
	m["coupled_gbps"] = medianOf(segs, func(st segStat) float64 { return gbps(st) * st.index() })
	m["step_p50_ms"] = medianOf(segs, func(st segStat) float64 { return p50(st) / st.index() })
	raw["steps_per_s"] = medianOf(segs, segStat.rawRate)
	raw["coupled_gbps"] = medianOf(segs, gbps)
	raw["step_p50_ms"] = medianOf(segs, p50)
	var cpu, cpuRaw float64
	for _, st := range segs {
		cpu += (st.cpuDrv + st.cpuKid) / st.index()
		cpuRaw += st.cpuDrv + st.cpuKid
	}
	m["cpu_ms_per_step"] = cpu * 1e3 / float64(t.steps)
	raw["cpu_ms_per_step"] = cpuRaw * 1e3 / float64(t.steps)
	m["success_ratio"] = float64(t.attempts-t.failures) / float64(t.attempts)
	m["insitu_fraction"] = float64(t.delta.shmBytes) / float64(t.delta.shmBytes+t.delta.netBytes)
	indexed := make([]float64, len(t.setups))
	for i, d := range t.setups {
		indexed[i] = d / t.setupIdx[i]
	}
	m["setup_s"], raw["setup_s"] = median(indexed), median(t.setups)
	raw["host_index"] = medianOf(segs, segStat.index)
	samples["setup_s"] = len(t.setups)
	for _, name := range []string{"steps_per_s", "coupled_gbps", "step_p50_ms"} {
		samples[name] = len(segs)
	}
	samples["cpu_ms_per_step"] = t.steps
	samples["success_ratio"] = t.attempts
	samples["insitu_fraction"] = t.steps
}

// driverMetrics fills the process-level diagnostics and the exact per-step
// counts from the untraced segments.
func driverMetrics(m, counts map[string]float64, segs []segStat, t *tally) {
	d, heap := t.delta, t.heap
	var all []float64
	var cpuDrv, cpuKid float64
	var payload int64
	for _, st := range segs {
		all = append(all, st.steps...)
		cpuDrv += st.cpuDrv
		cpuKid += st.cpuKid
		payload += st.bytes
	}
	n := float64(t.steps)
	m["driver.cpu_ms_per_step"] = cpuDrv * 1e3 / n
	m["codsnode.cpu_ms_per_step"] = cpuKid * 1e3 / n
	m["driver.allocs_per_step"] = float64(heap.allocs) / n
	m["driver.alloc_kb_per_step"] = float64(heap.bytes) / 1024 / n
	m["driver.gc_per_kstep"] = float64(heap.gcs) * 1e3 / n
	m["driver.rss_peak_mb"] = procPeakRSS(os.Getpid())
	m["codsnode.rss_peak_mb"] = t.peakChild
	m["driver.step_p90_ms"] = quantile(all, 0.90)
	m["driver.step_p99_ms"] = quantile(all, 0.99)
	rates := make([]float64, len(segs))
	for i, st := range segs {
		rates[i] = st.rate()
	}
	sort.Float64s(rates)
	m["driver.seg_spread"] = (rates[len(rates)-1] - rates[0]) / median(rates)

	m["tcpnet.wire_bytes_per_step"] = float64(d.wireBytes) / n
	m["tcpnet.frames_per_step"] = float64(d.frames) / n
	if payload > 0 {
		m["tcpnet.wire_amplification"] = float64(d.wireBytes) / float64(payload)
	}
	m["cluster.flows_per_step"] = float64(d.flows) / n
	if q := d.spanHits + d.spanMisses; q > 0 {
		m["sfc.cache_hit_ratio"] = float64(d.spanHits) / float64(q)
	}
	// The exact counts, for the same-seed-same-counts check.
	counts["bytes_per_step"] = float64(payload) / n
	counts["shm_bytes"] = float64(d.shmBytes)
	counts["net_bytes"] = float64(d.netBytes)
	counts["wire_bytes"] = float64(d.wireBytes)
	counts["frames"] = float64(d.frames)
	counts["flows"] = float64(d.flows)
	counts["control_flows"] = float64(d.ctlFlows)
	counts["sched_hits"] = float64(d.schedHits)
	counts["sched_misses"] = float64(d.schedMisses)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func medianOf(segs []segStat, f func(segStat) float64) float64 {
	xs := make([]float64, len(segs))
	for i, st := range segs {
		xs[i] = f(st)
	}
	return median(xs)
}
