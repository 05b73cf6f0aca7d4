// Command benchguard asserts that the observability instrumentation and
// the transfer retry layer stay within their overhead budgets on the
// parallel pull path.
//
// It stages the same rig as cmd/pullbench (round-robin block placement,
// simulated one-sided read latencies) and times full-domain retrievals
// in-process, alternating disabled and enabled batches of each toggle:
// the metrics registry and the transfer retry policy on a fault-free
// fabric. The overhead estimate is the median of the
// per-pair duration differences relative to the median disabled batch;
// the process exits 1 when it exceeds -threshold (default 5%) AND a
// supermajority of pairs agree the enabled batch was slower (a paired
// sign test). Pairing adjacent batches inside one process makes the
// guard robust in CI: machine drift cancels within each pair, the median
// discards heavy-tailed scheduler outliers, and the sign test keeps
// residual jitter — which flips each pair like a coin — from tripping
// the gate, while a real regression slows nearly every pair.
//
// A committed pullbench baseline (-baseline, default
// results/BENCH_pull.json) is compared informationally only — absolute
// nanoseconds are not portable across machines, so drift against the
// baseline is reported but never fails the guard.
//
// A deterministic gate (guard 4) runs the pull engine over the TCP
// loopback backend and asserts the scatter-gather protocol ships exactly
// the schedule-predicted clipped bytes (±2% for framing tweaks) in one
// request frame per owning peer.
//
// Three further paired gates run on the TCP loopback pull path: the
// distributed observability plane (registry, wire-mirror counters, span
// context and remote handler spans) against the -threshold budget, the
// elastic membership layer at steady state — lease heartbeats and
// expiry sweeps running, no topology change — against a tighter 3%, and
// the streaming coupling mode against the classic put/get/discard
// sequence moving identical bytes, against the default 5%.
//
// The adaptive remap plane gets a two-part gate: a paired overhead gate
// bounds the steady-state cost of a planner loop re-scoring the mapping
// from the live flow matrix while pulls proceed (budget 3%), and a
// deterministic win gate stages a fully skewed placement, runs one
// observe→plan→migrate round, and asserts the re-pull is byte-identical
// while inter-node bytes drop by at least 15%.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/membership"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/remap"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

const (
	nodes        = 4
	coresPerNode = 4
	side         = 32
	shmLatency   = 2 * time.Microsecond
	netLatency   = 25 * time.Microsecond
	transfers    = 64
	workers      = 8
)

// buildRig mirrors cmd/pullbench's staging: a grid of blocks placed
// round-robin so adjacent blocks always live on different cores.
func buildRig() (*cods.Space, *cods.Handle, geometry.BBox, error) {
	nx := 1
	for nx*nx < transfers {
		nx *= 2
	}
	ny := transfers / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return nil, nil, geometry.BBox{}, err
	}
	f := transport.NewFabric(m)
	region := geometry.BoxFromSize([]int{nx * side, ny * side})
	sp, err := cods.NewSpace(f, region)
	if err != nil {
		return nil, nil, geometry.BBox{}, err
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
				return nil, nil, geometry.BBox{}, err
			}
			n++
		}
	}
	f.SetReadLatency(shmLatency, netLatency)
	sp.SetPullWorkers(workers)
	return sp, sp.HandleAt(0, 2, "get"), region, nil
}

// pullBatch is how many retrievals share one timing measurement: batching
// averages out per-sleep timer jitter inside the simulated read latency.
const pullBatch = 4

// timedPulls times a batch of full-domain retrievals.
func timedPulls(consumer *cods.Handle, region geometry.BBox) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < pullBatch; i++ {
		if _, err := consumer.GetSequential("u", 0, region); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// baselineRow is the slice of the pullbench report the guard reads.
type baselineRow struct {
	Transfers int   `json:"transfers"`
	Workers   int   `json:"workers"`
	NsPerOp   int64 `json:"ns_per_op"`
}

func loadBaseline(path string) (int64, bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	var rep struct {
		Pull []baselineRow `json:"pull"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return 0, false
	}
	for _, row := range rep.Pull {
		if row.Transfers == transfers && row.Workers == workers {
			return row.NsPerOp, true
		}
	}
	return 0, false
}

// pairedOverhead alternates disabled and enabled batches of one toggle
// and estimates the enabled mode's relative overhead as the median of the
// per-pair duration differences over the median disabled duration, plus
// the fraction of pairs in which the enabled batch was the slower one.
// Adjacent batches see the same machine drift, so each pair cancels it;
// the order within a pair flips every repetition so neither mode
// systematically runs on a warmer machine; and the median discards the
// heavy-tailed scheduler outliers that make single-batch comparisons
// swing far more than a real overhead budget.
func pairedOverhead(consumer *cods.Handle, region geometry.BBox, reps int, set func(on bool)) (off time.Duration, overhead, slowerFrac float64, err error) {
	// Warm the schedule cache so only pull execution is timed.
	set(false)
	if _, err := consumer.GetSequential("u", 0, region); err != nil {
		return 0, 0, 0, err
	}
	mode := func(on bool) (time.Duration, error) {
		set(on)
		d, err := timedPulls(consumer, region)
		set(false)
		return d, err
	}
	offs := make([]time.Duration, 0, reps)
	diffs := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		first := i%2 == 1 // odd reps run the enabled batch first
		dA, err := mode(first)
		if err != nil {
			return 0, 0, 0, err
		}
		dB, err := mode(!first)
		if err != nil {
			return 0, 0, 0, err
		}
		dOff, dOn := dA, dB
		if first {
			dOff, dOn = dB, dA
		}
		offs = append(offs, dOff)
		diffs = append(diffs, dOn-dOff)
	}
	slower := 0
	for _, d := range diffs {
		if d > 0 {
			slower++
		}
	}
	off = median(offs)
	return off, float64(median(diffs)) / float64(off), float64(slower) / float64(len(diffs)), nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// A genuine regression makes nearly every pair slower; pure timing
// noise leaves the sign of each pair at a coin flip. Requiring a
// supermajority of slower pairs (a paired sign test) on top of the
// budget keeps the gates' false-positive rate under a percent even on
// machines whose scheduler jitter dwarfs the budget itself.
const signBar = 0.7

// wireByteGate asserts the scatter-gather wire protocol ships exactly
// the bytes the schedule predicts. It stages a small grid behind the TCP
// loopback backend, retrieves a half-block-inset region (every boundary
// block is clipped on its owner), and compares the owner-side segment
// bytes against the analytic clipped byte count. The gate is
// deterministic — byte counters, not timings — so its tolerance covers
// only future framing tweaks, not machine jitter.
const wireByteTolerance = 0.02

func wireByteGate() error {
	const gateTransfers = 16
	nx := 1
	for nx*nx < gateTransfers {
		nx *= 2
	}
	ny := gateTransfers / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return err
	}
	f := transport.NewFabric(m)
	pol := retry.Default()
	pol.Deadline = 10 * time.Second
	b, err := tcpnet.NewLoopback(f, tcpnet.Config{Retry: pol, IOTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer func() {
		f.SetBackend(nil)
		b.Close()
	}()
	f.SetBackend(b)
	sp, err := cods.NewSpace(f, geometry.BoxFromSize([]int{nx * side, ny * side}))
	if err != nil {
		return err
	}
	region := geometry.NewBBox(
		geometry.Point{side / 2, side / 2},
		geometry.Point{nx*side - side/2, ny*side - side/2})
	cores := m.TotalCores()
	var predicted int64
	remoteOwners := map[cluster.NodeID]bool{}
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
			owner := cluster.CoreID(n % cores)
			h := sp.HandleAt(owner, 1, "put")
			if err := h.PutSequential("u", 0, blk, data); err != nil {
				return err
			}
			if m.NodeOf(owner) != m.NodeOf(0) {
				if sub, ok := blk.Intersect(region); ok {
					predicted += int64(sub.Volume() * cods.ElemSize)
					remoteOwners[m.NodeOf(owner)] = true
				}
			}
			n++
		}
	}
	consumer := sp.HandleAt(0, 2, "get")
	// Warm the schedule cache and connection pool, then measure one pull.
	if _, err := consumer.GetSequential("u", 0, region); err != nil {
		return err
	}
	s0 := b.WireStats()
	if _, err := consumer.GetSequential("u", 0, region); err != nil {
		return err
	}
	s1 := b.WireStats()
	segBytes := s1.SegmentBytesServed - s0.SegmentBytesServed
	frames := s1.ReadMultiRequests - s0.ReadMultiRequests
	drift := float64(segBytes-predicted) / float64(predicted)
	fmt.Printf("tcp wire gate: %d clipped segment bytes vs %d predicted (%+.2f%%; budget ±%.0f%%), %d request frames for %d peers\n",
		segBytes, predicted, 100*drift, 100*wireByteTolerance, frames, len(remoteOwners))
	if drift > wireByteTolerance || drift < -wireByteTolerance {
		return fmt.Errorf("scatter-gather wire bytes %d drift %+.2f%% from schedule-predicted %d (budget ±%.0f%%)",
			segBytes, 100*drift, predicted, 100*wireByteTolerance)
	}
	if int(frames) != len(remoteOwners) {
		return fmt.Errorf("scatter-gather sent %d request frames for %d owning peers (want one per peer)",
			frames, len(remoteOwners))
	}
	return nil
}

// distributedObsGate bounds the enabled cost of the distributed
// observability plane on the TCP pull path: the metrics registry with its
// wire-mirror counters, the span trace context every request frame
// carries, and the remote handler spans the serving side captures for the
// driver to drain. The toggle flips all three at once — registry on plus
// a live tracer (which makes every pull stamp its span id into the wire
// frames and every served operation emit a buffered handler span) versus
// everything off — so the measured overhead is the full price of running
// a TCP workload observed end to end.
func distributedObsGate(reps int, threshold float64) error {
	const gateTransfers = 16
	nx := 1
	for nx*nx < gateTransfers {
		nx *= 2
	}
	ny := gateTransfers / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return err
	}
	f := transport.NewFabric(m)
	pol := retry.Default()
	pol.Deadline = 10 * time.Second
	b, err := tcpnet.NewLoopback(f, tcpnet.Config{Retry: pol, IOTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer func() {
		f.SetBackend(nil)
		b.Close()
	}()
	f.SetBackend(b)
	sp, err := cods.NewSpace(f, geometry.BoxFromSize([]int{nx * side, ny * side}))
	if err != nil {
		return err
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
				return err
			}
			n++
		}
	}
	region := geometry.NewBBox(
		geometry.Point{side / 2, side / 2},
		geometry.Point{nx*side - side/2, ny*side - side/2})
	consumer := sp.HandleAt(0, 2, "get")
	b.EnableSpanCapture()
	tr := obs.NewTracer(io.Discard)
	set := func(on bool) {
		obs.Enable(on)
		if on {
			sp.SetTracer(tr)
		} else {
			sp.SetTracer(nil)
		}
	}
	set(false)
	_, overhead, slower, err := pairedOverhead(consumer, region, reps, set)
	if err != nil {
		return err
	}
	// Keep the span buffer bounded; the drain cost is outside the timed
	// batches by construction.
	if err := b.DrainRemoteSpans(tr); err != nil {
		return err
	}
	fmt.Printf("tcp pull %d transfers: distributed obs overhead %+.2f%% (slower in %.0f%% of pairs; budget %.0f%%)\n",
		gateTransfers, 100*overhead, 100*slower, 100*threshold)
	if overhead > threshold && slower >= signBar {
		return fmt.Errorf("distributed observability overhead %.2f%% exceeds budget %.0f%% (slower in %.0f%% of pairs)",
			100*overhead, 100*threshold, 100*slower)
	}
	return nil
}

// elasticGate bounds the steady-state cost of the elastic membership
// layer on the TCP pull path: every node holds a lease renewed by
// ProbeLease heartbeats over the same loopback backend the pulls use, and
// the expiry sweep runs at the same cadence — but no lease ever expires,
// so the measured overhead is pure lease-plane traffic contending with
// pull traffic plus registry bookkeeping, the price a cluster pays for
// crash detection when nothing crashes. Its budget is a tighter 3%.
const elasticBudget = 0.03

func elasticGate(reps int) error {
	const gateTransfers = 16
	nx := 1
	for nx*nx < gateTransfers {
		nx *= 2
	}
	ny := gateTransfers / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return err
	}
	f := transport.NewFabric(m)
	pol := retry.Default()
	pol.Deadline = 10 * time.Second
	b, err := tcpnet.NewLoopback(f, tcpnet.Config{Retry: pol, IOTimeout: 10 * time.Second, Incarnation: 1})
	if err != nil {
		return err
	}
	defer func() {
		f.SetBackend(nil)
		b.Close()
	}()
	f.SetBackend(b)
	sp, err := cods.NewSpace(f, geometry.BoxFromSize([]int{nx * side, ny * side}))
	if err != nil {
		return err
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
				return err
			}
			n++
		}
	}
	region := geometry.NewBBox(
		geometry.Point{side / 2, side / 2},
		geometry.Point{nx*side - side/2, ny*side - side/2})
	consumer := sp.HandleAt(0, 2, "get")

	// Leases far longer than the heartbeat: renewals always land in time,
	// so the sweep never expires anything — steady state by construction.
	reg := membership.NewRegistry(time.Minute)
	for node := 0; node < nodes; node++ {
		if err := reg.Join(cluster.NodeID(node), "", 1); err != nil {
			return err
		}
	}
	const heartbeat = 2 * time.Millisecond
	var mon *membership.Monitor
	var sweepStop chan struct{}
	set := func(on bool) {
		if on {
			mon = membership.NewMonitor(reg, heartbeat, func(node cluster.NodeID, inc uint64) error {
				_, err := b.ProbeLease(node, inc)
				return err
			})
			mon.Start()
			sweepStop = make(chan struct{})
			go func(stop chan struct{}) {
				t := time.NewTicker(heartbeat)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						reg.Sweep()
					}
				}
			}(sweepStop)
			return
		}
		if mon != nil {
			mon.Stop()
			mon = nil
		}
		if sweepStop != nil {
			close(sweepStop)
			sweepStop = nil
		}
	}
	_, overhead, slower, err := pairedOverhead(consumer, region, reps, set)
	if err != nil {
		return err
	}
	for _, mem := range reg.Members() {
		if mem.State != "alive" {
			return fmt.Errorf("steady-state elastic gate expired node %d's lease — heartbeats did not keep up", mem.Node)
		}
	}
	fmt.Printf("tcp pull %d transfers: steady-state elastic overhead %+.2f%% (slower in %.0f%% of pairs; budget %.0f%%)\n",
		gateTransfers, 100*overhead, 100*slower, 100*elasticBudget)
	if overhead > elasticBudget && slower >= signBar {
		return fmt.Errorf("steady-state elastic overhead %.2f%% exceeds budget %.0f%% (slower in %.0f%% of pairs)",
			100*overhead, 100*elasticBudget, 100*slower)
	}
	return nil
}

// streamingGate bounds the cost of the streaming coupling mode against
// the classic put/get/discard sequence it generalizes, on the TCP
// loopback pull path. Each pair times two batches moving identical bytes
// through identical placement: n sequential puts, a full-domain get and n
// explicit discards per version on one side; n publishes, a windowed
// cursor read and a cursor advance (which retires the version through the
// same DiscardSequential) on the other. The measured difference is pure
// stream bookkeeping — watermark and cursor accounting under the stream
// lock, retirement routing — and must stay within the same 5% budget as
// the instrumentation gates.
const streamingBudget = 0.05

func streamingGate(reps int) error {
	const (
		gateBlocks   = 16
		gateVersions = 2
	)
	nx := 1
	for nx*nx < gateBlocks {
		nx *= 2
	}
	ny := gateBlocks / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return err
	}
	f := transport.NewFabric(m)
	pol := retry.Default()
	pol.Deadline = 10 * time.Second
	b, err := tcpnet.NewLoopback(f, tcpnet.Config{Retry: pol, IOTimeout: 10 * time.Second, Incarnation: 1})
	if err != nil {
		return err
	}
	defer func() {
		f.SetBackend(nil)
		b.Close()
	}()
	f.SetBackend(b)
	region := geometry.BoxFromSize([]int{nx * side, ny * side})
	sp, err := cods.NewSpace(f, region)
	if err != nil {
		return err
	}
	cores := m.TotalCores()
	blks := make([]geometry.BBox, 0, gateBlocks)
	datas := make([][]float64, 0, gateBlocks)
	handles := make([]*cods.Handle, 0, gateBlocks)
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
			blks = append(blks, blk)
			datas = append(datas, data)
			handles = append(handles, sp.HandleAt(cluster.CoreID(n%cores), 1, "put"))
			n++
		}
	}
	consumer := sp.HandleAt(0, 2, "get")

	classic := func(v string) (time.Duration, error) {
		start := time.Now()
		for ver := 0; ver < gateVersions; ver++ {
			for i := range blks {
				if err := handles[i].PutSequential(v, ver, blks[i], datas[i]); err != nil {
					return 0, err
				}
			}
			if _, err := consumer.GetSequential(v, ver, region); err != nil {
				return 0, err
			}
			for i := range blks {
				if err := handles[i].DiscardSequential(v, ver, blks[i]); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}
	streamed := func(v string) (time.Duration, error) {
		// Declaration and subscription are mode setup, paid once per
		// stream lifetime; the timed section is the steady-state loop.
		if err := sp.DeclareStream(v, cods.StreamConfig{
			Producers: gateBlocks, MaxLag: gateVersions, Policy: cods.Backpressure,
		}); err != nil {
			return 0, err
		}
		cur, err := consumer.Subscribe(v)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for ver := 0; ver < gateVersions; ver++ {
			for i := range blks {
				if _, err := handles[i].Publish(v, i, blks[i], datas[i]); err != nil {
					return 0, err
				}
			}
			if _, err := cur.GetWindow(region, ver, ver); err != nil {
				return 0, err
			}
			if err := cur.Advance(ver + 1); err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		for i := range blks {
			if err := handles[i].ClosePublisher(v, i); err != nil {
				return 0, err
			}
		}
		if err := cur.Close(); err != nil {
			return 0, err
		}
		return d, nil
	}

	// One untimed batch of each warms the sockets and code paths.
	if _, err := classic("warm-c"); err != nil {
		return err
	}
	if _, err := streamed("warm-s"); err != nil {
		return err
	}
	offs := make([]time.Duration, 0, reps)
	diffs := make([]time.Duration, 0, reps)
	slower := 0
	for i := 0; i < reps; i++ {
		var dC, dS time.Duration
		var err error
		if i%2 == 1 { // odd reps run the streaming batch first
			dS, err = streamed(fmt.Sprintf("s%d", i))
			if err == nil {
				dC, err = classic(fmt.Sprintf("c%d", i))
			}
		} else {
			dC, err = classic(fmt.Sprintf("c%d", i))
			if err == nil {
				dS, err = streamed(fmt.Sprintf("s%d", i))
			}
		}
		if err != nil {
			return err
		}
		offs = append(offs, dC)
		diffs = append(diffs, dS-dC)
		if dS > dC {
			slower++
		}
	}
	off := median(offs)
	overhead := float64(median(diffs)) / float64(off)
	slowerFrac := float64(slower) / float64(len(diffs))
	fmt.Printf("tcp stream %d blocks x %d versions: streaming overhead vs put/get %+.2f%% (slower in %.0f%% of pairs; budget %.0f%%)\n",
		gateBlocks, gateVersions, 100*overhead, 100*slowerFrac, 100*streamingBudget)
	if overhead > streamingBudget && slowerFrac >= signBar {
		return fmt.Errorf("streaming overhead %.2f%% exceeds budget %.0f%% (slower in %.0f%% of pairs)",
			100*overhead, 100*streamingBudget, 100*slowerFrac)
	}
	return nil
}

// remapOverheadBudget bounds the steady-state cost of the adaptive remap
// plane on the TCP pull path. The toggle runs a planner loop at a 1ms
// cadence — each tick rebuilds the observed flow matrix from the
// machine's flow log and re-scores the block→core mapping against it,
// exactly what an adaptive driver does between coupled iterations — while
// the timed pulls proceed. No plan is applied, so the placement never
// changes; the measured overhead is planner CPU plus the metrics-mutex
// contention its flow-log snapshots add to the recording path.
const remapOverheadBudget = 0.03

func remapOverheadGate(reps int) error {
	const gateTransfers = 16
	nx := 1
	for nx*nx < gateTransfers {
		nx *= 2
	}
	ny := gateTransfers / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return err
	}
	f := transport.NewFabric(m)
	pol := retry.Default()
	pol.Deadline = 10 * time.Second
	b, err := tcpnet.NewLoopback(f, tcpnet.Config{Retry: pol, IOTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer func() {
		f.SetBackend(nil)
		b.Close()
	}()
	f.SetBackend(b)
	sp, err := cods.NewSpace(f, geometry.BoxFromSize([]int{nx * side, ny * side}))
	if err != nil {
		return err
	}
	// The planner scores the real staged blocks, so the puts run through a
	// ledger exactly as a remap-capable driver stages them.
	ledger := membership.NewLedger()
	sp.SetPutRecorder(ledger)
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
				return err
			}
			n++
		}
	}
	region := geometry.NewBBox(
		geometry.Point{side / 2, side / 2},
		geometry.Point{nx*side - side/2, ny*side - side/2})
	consumer := sp.HandleAt(0, 2, "get")
	blocks := remap.LedgerBlocks(ledger)
	var stop, done chan struct{}
	set := func(on bool) {
		if on {
			stop, done = make(chan struct{}), make(chan struct{})
			go func(stop, done chan struct{}) {
				defer close(done)
				t := time.NewTicker(time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						fm := obs.BuildFlowMatrix(m.Metrics().Flows(""))
						remap.Propose(m, fm, blocks, remap.Options{})
					}
				}
			}(stop, done)
			return
		}
		if stop != nil {
			close(stop)
			<-done
			stop, done = nil, nil
		}
	}
	_, overhead, slower, err := pairedOverhead(consumer, region, reps, set)
	if err != nil {
		return err
	}
	fmt.Printf("tcp pull %d transfers: remap planner overhead %+.2f%% (slower in %.0f%% of pairs; budget %.0f%%)\n",
		gateTransfers, 100*overhead, 100*slower, 100*remapOverheadBudget)
	if overhead > remapOverheadBudget && slower >= signBar {
		return fmt.Errorf("remap planner overhead %.2f%% exceeds budget %.0f%% (slower in %.0f%% of pairs)",
			100*overhead, 100*remapOverheadBudget, 100*slower)
	}
	return nil
}

// remapWinFloor is the minimum fractional inter-node byte reduction one
// remap round must deliver on the seeded skewed staging: every block is
// staged on nodes 1..3 while the only consumer sits on node 0, so the
// static mapping ships the whole domain over the wire on every pull. The
// planner reads that traffic from the flow matrix, migrates each block
// next to its reader through the put-ledger restage, and the re-pull must
// return byte-identical values while the coupled volume shifts onto
// shared memory. The gate is deterministic — byte counters, not timings —
// so the floor encodes the headline claim, not machine jitter.
const remapWinFloor = 0.15

func remapWinGate() error {
	const gateTransfers = 16
	nx := 1
	for nx*nx < gateTransfers {
		nx *= 2
	}
	ny := gateTransfers / nx
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return err
	}
	f := transport.NewFabric(m)
	pol := retry.Default()
	pol.Deadline = 10 * time.Second
	b, err := tcpnet.NewLoopback(f, tcpnet.Config{Retry: pol, IOTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer func() {
		f.SetBackend(nil)
		b.Close()
	}()
	f.SetBackend(b)
	region := geometry.BoxFromSize([]int{nx * side, ny * side})
	sp, err := cods.NewSpace(f, region)
	if err != nil {
		return err
	}
	ledger := membership.NewLedger()
	sp.SetPutRecorder(ledger)
	// Skewed staging: owners cycle over the cores of nodes 1..3 only.
	remoteCores := m.TotalCores() - coresPerNode
	n := 0
	for bx := 0; bx < nx; bx++ {
		for by := 0; by < ny; by++ {
			blk := geometry.NewBBox(
				geometry.Point{bx * side, by * side},
				geometry.Point{(bx + 1) * side, (by + 1) * side})
			data := make([]float64, blk.Volume())
			for i := range data {
				data[i] = float64(n+i+1) / 3.0
			}
			h := sp.HandleAt(cluster.CoreID(coresPerNode+n%remoteCores), 1, "put")
			if err := h.PutSequential("u", 0, blk, data); err != nil {
				return err
			}
			n++
		}
	}
	consumer := sp.HandleAt(0, 2, "couple")
	// Warm the schedule cache and connection pool, then meter one static
	// pull — this is also the observed traffic the planner scores.
	before, err := consumer.GetSequential("u", 0, region)
	if err != nil {
		return err
	}
	net0 := f.MediumBytes(cluster.Network)
	if _, err := consumer.GetSequential("u", 0, region); err != nil {
		return err
	}
	staticNet := f.MediumBytes(cluster.Network) - net0
	if staticNet == 0 {
		return fmt.Errorf("remap win gate: skewed staging moved no inter-node bytes — the scenario is broken")
	}

	// One observe → plan → migrate round through the staged-block
	// machinery: ledger restage, DHT resplit, epoch fence.
	fm := obs.BuildFlowMatrix(m.Metrics().Flows(""))
	plan := remap.Propose(m, fm, remap.LedgerBlocks(ledger), remap.Options{})
	if len(plan.Moves) == 0 {
		return fmt.Errorf("remap win gate: planner kept the static mapping on a fully skewed staging")
	}
	moved, err := remap.Apply(sp, ledger, plan, 2, "couple")
	if err != nil {
		return err
	}

	// First re-pull recomputes the fenced schedule and must be
	// byte-identical; the second is the metered steady-state pull.
	after, err := consumer.GetSequential("u", 0, region)
	if err != nil {
		return err
	}
	if len(after) != len(before) {
		return fmt.Errorf("remap win gate: re-pull returned %d cells, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			return fmt.Errorf("remap win gate: retrieved values differ at cell %d after migration", i)
		}
	}
	net1 := f.MediumBytes(cluster.Network)
	if _, err := consumer.GetSequential("u", 0, region); err != nil {
		return err
	}
	remapNet := f.MediumBytes(cluster.Network) - net1
	reduction := 1 - float64(remapNet)/float64(staticNet)
	fmt.Printf("remap win gate: %d blocks migrated, inter-node bytes %d -> %d per pull (-%.1f%%; floor %.0f%%), re-pull byte-identical\n",
		moved, staticNet, remapNet, 100*reduction, 100*remapWinFloor)
	if reduction < remapWinFloor {
		return fmt.Errorf("remap round cut inter-node bytes by %.1f%%, below the %.0f%% floor (%d -> %d)",
			100*reduction, 100*remapWinFloor, staticNet, remapNet)
	}
	return nil
}

func run(baseline string, reps int, threshold float64) error {
	sp, consumer, region, err := buildRig()
	if err != nil {
		return err
	}

	// Guard 1: observability instrumentation on the fault-free pull path.
	obs.Enable(false)
	off, overhead, slowObs, err := pairedOverhead(consumer, region, reps, obs.Enable)
	if err != nil {
		return err
	}
	fmt.Printf("pull %d transfers, %d workers: disabled %.3f ms/op, obs overhead %+.2f%% (slower in %.0f%% of pairs; budget %.0f%%)\n",
		transfers, workers, float64(off.Nanoseconds())/1e6/pullBatch,
		100*overhead, 100*slowObs, 100*threshold)

	// Guard 2: the transfer retry layer on a fault-free fabric. An enabled
	// policy only adds the retry.Do bookkeeping per transfer — no fault
	// fires, so no backoff is ever slept.
	pol := retry.Default()
	_, retryOverhead, slowRetry, err := pairedOverhead(consumer, region, reps, func(enable bool) {
		if enable {
			sp.SetRetryPolicy(pol)
		} else {
			sp.SetRetryPolicy(retry.Policy{})
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("pull %d transfers, %d workers: retry overhead %+.2f%% (slower in %.0f%% of pairs; budget %.0f%%)\n",
		transfers, workers, 100*retryOverhead, 100*slowRetry, 100*threshold)

	if base, ok := loadBaseline(baseline); ok {
		drift := float64(off.Nanoseconds()/pullBatch-base) / float64(base)
		fmt.Printf("committed baseline %s: %.3f ms (%+.2f%% vs this machine; informational only)\n",
			baseline, float64(base)/1e6, 100*drift)
	} else {
		fmt.Printf("no usable baseline at %s (informational only)\n", baseline)
	}

	if overhead > threshold && slowObs >= signBar {
		return fmt.Errorf("instrumentation overhead %.2f%% exceeds budget %.0f%% (slower in %.0f%% of pairs)",
			100*overhead, 100*threshold, 100*slowObs)
	}
	if retryOverhead > threshold && slowRetry >= signBar {
		return fmt.Errorf("retry-layer overhead %.2f%% exceeds budget %.0f%% (slower in %.0f%% of pairs)",
			100*retryOverhead, 100*threshold, 100*slowRetry)
	}

	// Guard 4: the scatter-gather wire protocol moves only what the
	// schedule predicts.
	if err := wireByteGate(); err != nil {
		return err
	}

	// Guard 5: the distributed observability plane on the TCP pull path.
	if err := distributedObsGate(reps, threshold); err != nil {
		return err
	}

	// Guard 6: the elastic membership layer at steady state — leases on,
	// no topology change.
	if err := elasticGate(reps); err != nil {
		return err
	}

	// Guard 7: the streaming coupling mode against the classic
	// put/get/discard sequence, identical bytes and placement.
	if err := streamingGate(reps); err != nil {
		return err
	}

	// Guard 8: the adaptive remap plane — the planner's steady-state cost,
	// then one migration round's win on a deterministic skewed staging.
	if err := remapOverheadGate(reps); err != nil {
		return err
	}
	return remapWinGate()
}

func main() {
	baseline := flag.String("baseline", filepath.Join("results", "BENCH_pull.json"), "pullbench report for the informational comparison")
	reps := flag.Int("reps", 25, "paired timing repetitions (median pair difference kept)")
	threshold := flag.Float64("threshold", 0.05, "maximum allowed relative overhead of enabled instrumentation")
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}
	if err := run(*baseline, *reps, *threshold); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}
