// Command pullbench measures the parallel pull engine against the serial
// baseline and the SFC span cache against the raw orthant walk, and writes
// the results to results/BENCH_pull.json.
//
// The pull benchmark stages a grid of blocks round-robin across a 4x4
// machine (adjacent blocks always have different owners, so coalescing
// cannot shrink the schedule) and retrieves the full domain. The fabric is
// configured with a simulated one-sided-read round-trip latency (2us
// shared memory / 25us network, modelling a 2012-era RDMA get): the
// in-process fabric copies memory in nanoseconds, which no interconnect
// does, and it is these round trips that the worker pool overlaps. Byte
// accounting per retrieval is asserted identical across worker counts.
//
// Usage:
//
//	pullbench                 # write results/BENCH_pull.json
//	pullbench -o other.json   # write elsewhere
//	pullbench -reps 9         # more timing repetitions (median is kept)
//	pullbench -curve morton   # linearize lookups with a different policy
//	pullbench -curve all      # sweep every policy into results/BENCH_curves.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flag"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

const (
	nodes        = 4
	coresPerNode = 4
	side         = 32 // cells per block side; 32x32 doubles = 8 KiB per transfer
	shmLatency   = 2 * time.Microsecond
	netLatency   = 25 * time.Microsecond
)

// pullResult is one (transfers, workers) timing row.
type pullResult struct {
	Transfers       int     `json:"transfers"`
	Workers         int     `json:"workers"`
	NsPerOp         int64   `json:"ns_per_op"`
	MBPerSec        float64 `json:"mb_per_sec"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

type spanResult struct {
	CurveDim      int     `json:"curve_dim"`
	CurveBits     int     `json:"curve_bits"`
	Queries       int     `json:"queries_per_op"`
	CachedNsPerOp int64   `json:"cached_ns_per_op"`
	RawNsPerOp    int64   `json:"uncached_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

type report struct {
	GeneratedBy    string       `json:"generated_by"`
	GOMAXPROCS     int          `json:"gomaxprocs"`
	Machine        string       `json:"machine"`
	ShmLatencyUs   float64      `json:"simulated_shm_read_latency_us"`
	NetLatencyUs   float64      `json:"simulated_network_read_latency_us"`
	BlockBytes     int64        `json:"block_bytes"`
	BytesIdentical bool         `json:"bytes_identical_across_workers"`
	Pull           []pullResult `json:"pull"`
	Spans          spanResult   `json:"spans"`
}

// rig is a staged space ready for repeated full-domain retrievals.
type rig struct {
	sp       *cods.Space
	fabric   *transport.Fabric
	consumer *cods.Handle
	region   geometry.BBox
}

func buildRig(transfers int, curve string) (*rig, error) {
	nx := 1
	for nx*nx < transfers {
		nx *= 2
	}
	ny := transfers / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return nil, err
	}
	f := transport.NewFabric(m)
	sp, err := cods.NewSpaceWithCurve(f, geometry.BoxFromSize([]int{nx * side, ny * side}), curve)
	if err != nil {
		return nil, err
	}
	cores := m.TotalCores()
	n := 0
	for bx := 0; bx < nx; bx++ {
		for by := 0; by < ny; by++ {
			blk := geometry.NewBBox(
				geometry.Point{bx * side, by * side},
				geometry.Point{(bx + 1) * side, (by + 1) * side})
			data := make([]float64, blk.Volume())
			for i := range data {
				data[i] = float64(n + i)
			}
			h := sp.HandleAt(cluster.CoreID(n%cores), 1, "put")
			if err := h.PutSequential("u", 0, blk, data); err != nil {
				return nil, err
			}
			n++
		}
	}
	f.SetReadLatency(shmLatency, netLatency)
	return &rig{
		sp:       sp,
		fabric:   f,
		consumer: sp.HandleAt(0, 2, "get"),
		region:   geometry.BoxFromSize([]int{nx * side, ny * side}),
	}, nil
}

// timePull returns the median wall time of reps full-domain retrievals at
// the given worker count, plus the per-retrieval byte counts by medium.
func (r *rig) timePull(workers, reps int) (time.Duration, [2]int64, error) {
	r.sp.SetPullWorkers(workers)
	// Warm the schedule cache so timings measure pull execution only.
	if _, err := r.consumer.GetSequential("u", 0, r.region); err != nil {
		return 0, [2]int64{}, err
	}
	var bytes [2]int64
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		shm0 := r.fabric.MediumBytes(cluster.SharedMemory)
		net0 := r.fabric.MediumBytes(cluster.Network)
		start := time.Now()
		if _, err := r.consumer.GetSequential("u", 0, r.region); err != nil {
			return 0, bytes, err
		}
		times = append(times, time.Since(start))
		bytes[cluster.SharedMemory] = r.fabric.MediumBytes(cluster.SharedMemory) - shm0
		bytes[cluster.Network] = r.fabric.MediumBytes(cluster.Network) - net0
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], bytes, nil
}

// fabricTotals sums the per-medium byte/op accounting over every fabric a
// run created, for reconciliation against the process-wide registry.
type fabricTotals struct {
	bytes [2]int64
	ops   [2]int64
}

func (ft *fabricTotals) add(f *transport.Fabric) {
	for _, md := range []cluster.Medium{cluster.SharedMemory, cluster.Network} {
		ft.bytes[md] += f.MediumBytes(md)
		ft.ops[md] += f.MediumOps(md)
	}
}

func runPull(reps int, curve string) ([]pullResult, bool, fabricTotals, error) {
	var out []pullResult
	var totals fabricTotals
	identical := true
	for _, transfers := range []int{16, 64, 256} {
		r, err := buildRig(transfers, curve)
		if err != nil {
			return nil, false, totals, err
		}
		var serial time.Duration
		var serialBytes [2]int64
		for _, workers := range []int{1, 2, 4, 8} {
			d, bytes, err := r.timePull(workers, reps)
			if err != nil {
				return nil, false, totals, err
			}
			if workers == 1 {
				serial, serialBytes = d, bytes
			} else if bytes != serialBytes {
				identical = false
			}
			vol := r.region.Volume() * cods.ElemSize
			out = append(out, pullResult{
				Transfers:       transfers,
				Workers:         workers,
				NsPerOp:         d.Nanoseconds(),
				MBPerSec:        float64(vol) / 1e6 / d.Seconds(),
				SpeedupVsSerial: float64(serial) / float64(d),
			})
		}
		totals.add(r.fabric)
	}
	return out, identical, totals, nil
}

func runSpans(reps int) (spanResult, error) {
	const dim, bits = 2, 8
	c, err := sfc.NewCurve(dim, bits)
	if err != nil {
		return spanResult{}, err
	}
	var qs []geometry.BBox
	for bx := 0; bx < 4; bx++ {
		for by := 0; by < 4; by++ {
			qs = append(qs, geometry.NewBBox(
				geometry.Point{bx * 16, by * 16},
				geometry.Point{(bx + 1) * 16, (by + 1) * 16}))
		}
	}
	// Each timed op runs every query once; the cached run repeats the ops
	// enough that the first (miss) pass is amortised away by the median.
	measure := func(capacity int) (time.Duration, error) {
		sfc.ResetSpanCache()
		sfc.SetSpanCacheCapacity(capacity)
		defer func() {
			sfc.ResetSpanCache()
			sfc.SetSpanCacheCapacity(sfc.DefaultSpanCacheCapacity)
		}()
		times := make([]time.Duration, 0, reps)
		for i := 0; i < reps*8; i++ {
			start := time.Now()
			for _, q := range qs {
				if len(c.Spans(q)) == 0 {
					return 0, fmt.Errorf("empty spans for %v", q)
				}
			}
			times = append(times, time.Since(start))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[len(times)/2], nil
	}
	cached, err := measure(sfc.DefaultSpanCacheCapacity)
	if err != nil {
		return spanResult{}, err
	}
	raw, err := measure(0)
	if err != nil {
		return spanResult{}, err
	}
	return spanResult{
		CurveDim:      dim,
		CurveBits:     bits,
		Queries:       len(qs),
		CachedNsPerOp: cached.Nanoseconds(),
		RawNsPerOp:    raw.Nanoseconds(),
		Speedup:       float64(raw) / float64(cached),
	}, nil
}

// curveResult compares one linearization policy on the staged pull path:
// the same round-robin blocks, the same full-domain retrieval, only the
// lookup curve changes. InsetSpans is the fragmentation the DHT pays to
// cover a half-block-inset query under this policy — the row-major curve
// shatters it into one span per row, the locality-preserving curves keep
// contiguous runs — and SpanNsPerOp is the raw (uncached) decomposition
// walk producing those spans.
type curveResult struct {
	Curve       string  `json:"curve"`
	Transfers   int     `json:"transfers"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	InsetSpans  int     `json:"inset_query_spans"`
	SpanNsPerOp int64   `json:"span_walk_ns_per_op"`
}

type curveReport struct {
	GeneratedBy    string        `json:"generated_by"`
	GOMAXPROCS     int           `json:"gomaxprocs"`
	Machine        string        `json:"machine"`
	ShmLatencyUs   float64       `json:"simulated_shm_read_latency_us"`
	NetLatencyUs   float64       `json:"simulated_network_read_latency_us"`
	BytesIdentical bool          `json:"bytes_identical_across_curves"`
	Curves         []curveResult `json:"curves"`
}

// runCurves sweeps every registered linearization policy over an
// identical staged retrieval. The retrieved values must be byte-identical
// across policies — the curve only relabels the lookup index space — so
// the sweep doubles as a cross-curve correctness check.
func runCurves(reps int) ([]curveResult, bool, error) {
	const transfers, workers = 64, 4
	identical := true
	var ref []float64
	var out []curveResult
	for _, name := range sfc.CurveNames() {
		r, err := buildRig(transfers, name)
		if err != nil {
			return nil, false, err
		}
		d, _, err := r.timePull(workers, reps)
		if err != nil {
			return nil, false, err
		}
		got, err := r.consumer.GetSequential("u", 0, r.region)
		if err != nil {
			return nil, false, err
		}
		if ref == nil {
			ref = got
		} else if len(got) != len(ref) {
			identical = false
		} else {
			for i := range got {
				if got[i] != ref[i] {
					identical = false
					break
				}
			}
		}
		l, err := sfc.ForDomain(name, r.region.Sizes())
		if err != nil {
			return nil, false, err
		}
		inset := geometry.NewBBox(
			geometry.Point{side / 2, side / 2},
			geometry.Point{r.region.Max[0] - side/2, r.region.Max[1] - side/2})
		walk, nspans, err := timeSpanWalk(l, inset, reps)
		if err != nil {
			return nil, false, err
		}
		vol := r.region.Volume() * cods.ElemSize
		out = append(out, curveResult{
			Curve:       name,
			Transfers:   transfers,
			Workers:     workers,
			NsPerOp:     d.Nanoseconds(),
			MBPerSec:    float64(vol) / 1e6 / d.Seconds(),
			InsetSpans:  nspans,
			SpanNsPerOp: walk.Nanoseconds(),
		})
	}
	return out, identical, nil
}

// timeSpanWalk medians reps raw decompositions of one query, cache off so
// every repetition pays the full orthant walk.
func timeSpanWalk(l sfc.Linearizer, q geometry.BBox, reps int) (time.Duration, int, error) {
	sfc.ResetSpanCache()
	sfc.SetSpanCacheCapacity(0)
	defer func() {
		sfc.ResetSpanCache()
		sfc.SetSpanCacheCapacity(sfc.DefaultSpanCacheCapacity)
	}()
	nspans := len(l.Spans(q))
	if nspans == 0 {
		return 0, 0, fmt.Errorf("empty spans for %v", q)
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		l.Spans(q)
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nspans, nil
}

func main() {
	out := flag.String("o", filepath.Join("results", "BENCH_pull.json"), "output JSON path")
	reps := flag.Int("reps", 7, "timing repetitions per configuration (median kept)")
	obsReport := flag.Bool("report", false, "enable the metrics registry and write a reconciled report")
	obsReportPath := flag.String("report-path", filepath.Join("results", "report.json"), "where -report writes the JSON report")
	curve := flag.String("curve", "", `lookup linearization policy: hilbert (default), morton or rowmajor; "all" sweeps every policy`)
	curvesOut := flag.String("curves-o", filepath.Join("results", "BENCH_curves.json"), `where -curve=all writes the sweep`)
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}
	sweep := *curve == "all"
	rigCurve := *curve
	if sweep {
		rigCurve = "" // the standard benches keep the default policy
	}
	if *obsReport {
		// NOTE: instrumentation on changes what is being measured; -report
		// timings quantify the registry's overhead, they are not the
		// baseline numbers.
		obs.Enable(true)
	}

	pull, identical, fabTotals, err := runPull(*reps, rigCurve)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
		os.Exit(1)
	}
	spans, err := runSpans(*reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
		os.Exit(1)
	}
	rep := report{
		GeneratedBy:    "cmd/pullbench",
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Machine:        fmt.Sprintf("%d nodes x %d cores (simulated)", nodes, coresPerNode),
		ShmLatencyUs:   float64(shmLatency) / float64(time.Microsecond),
		NetLatencyUs:   float64(netLatency) / float64(time.Microsecond),
		BlockBytes:     int64(side * side * cods.ElemSize),
		BytesIdentical: identical,
		Pull:           pull,
		Spans:          spans,
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, p := range pull {
		fmt.Printf("  pull transfers=%-4d workers=%d  %10.3f ms/op  speedup %.2fx\n",
			p.Transfers, p.Workers, float64(p.NsPerOp)/1e6, p.SpeedupVsSerial)
	}
	fmt.Printf("  spans cached %.1f us vs raw %.1f us  speedup %.2fx\n",
		float64(spans.CachedNsPerOp)/1e3, float64(spans.RawNsPerOp)/1e3, spans.Speedup)

	if sweep {
		curves, curvesIdentical, err := runCurves(*reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
			os.Exit(1)
		}
		crep := curveReport{
			GeneratedBy:    "cmd/pullbench -curve all",
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			Machine:        rep.Machine,
			ShmLatencyUs:   rep.ShmLatencyUs,
			NetLatencyUs:   rep.NetLatencyUs,
			BytesIdentical: curvesIdentical,
			Curves:         curves,
		}
		if err := os.MkdirAll(filepath.Dir(*curvesOut), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
			os.Exit(1)
		}
		cbuf, err := json.MarshalIndent(crep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
			os.Exit(1)
		}
		cbuf = append(cbuf, '\n')
		if err := os.WriteFile(*curvesOut, cbuf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (bytes identical across curves: %v)\n", *curvesOut, curvesIdentical)
		for _, c := range curves {
			fmt.Printf("  curve %-9s %10.3f ms/op  inset spans %4d  walk %8.1f us\n",
				c.Curve, float64(c.NsPerOp)/1e6, c.InsetSpans, float64(c.SpanNsPerOp)/1e3)
		}
		if !curvesIdentical {
			fmt.Fprintln(os.Stderr, "pullbench: retrieved bytes differ across linearization policies")
			os.Exit(1)
		}
	}

	if *obsReport {
		r := obs.NewReport("pullbench")
		r.SetMeta("reps", fmt.Sprintf("%d", *reps))
		r.SetMeta("machine", rep.Machine)
		r.AddCheck("transport.shm.bytes",
			r.Metrics.Counters["transport.shm.bytes"], fabTotals.bytes[cluster.SharedMemory])
		r.AddCheck("transport.shm.ops",
			r.Metrics.Counters["transport.shm.ops"], fabTotals.ops[cluster.SharedMemory])
		r.AddCheck("transport.network.bytes",
			r.Metrics.Counters["transport.network.bytes"], fabTotals.bytes[cluster.Network])
		r.AddCheck("transport.network.ops",
			r.Metrics.Counters["transport.network.ops"], fabTotals.ops[cluster.Network])
		if err := r.WriteFile(*obsReportPath); err != nil {
			fmt.Fprintf(os.Stderr, "pullbench: %v\n", err)
			os.Exit(1)
		}
		status := "reconciled"
		if !r.Reconciled {
			status = "MISMATCH"
		}
		fmt.Printf("wrote %s (registry vs fabric: %s)\n", *obsReportPath, status)
	}
}
