// Command benchguard bounds the relative cost of five optional planes on
// the pull path over real sockets. Every gate runs on its own copy of one
// rig — a 4x4 machine behind the TCP loopback backend, sixteen 8 KiB
// blocks placed round-robin so adjacent blocks always live on different
// cores — and times batches of retrievals with the plane off and on:
//
//   - distributed obs: the metrics registry with its wire-mirror counters,
//     span context in every request frame and remote handler spans
//     (budget -threshold, default 5%);
//   - retry: an enabled transfer retry policy on a fault-free fabric
//     (-threshold);
//   - elastic: lease heartbeats and expiry sweeps with no topology change
//     (3%);
//   - streaming: publish / windowed read / advance against the classic
//     put / get / discard sequence moving identical bytes (5%);
//   - remap planner: a planner loop re-scoring the mapping from the live
//     flow matrix while pulls proceed (3%).
//
// Batches alternate inside one process, the order within a pair flipping
// every repetition. A gate's overhead estimate is the median of the
// per-pair duration differences relative to the median disabled batch; it
// fails when that exceeds its budget AND a supermajority of pairs agree
// the enabled batch was slower (a paired sign test). Machine drift cancels
// within each pair, the median discards heavy-tailed scheduler outliers,
// and the sign test keeps residual jitter — which flips each pair like a
// coin — from tripping a gate, while a real regression slows nearly every
// pair. Every gate runs whatever the others decided; the process prints
// one verdict line per gate and exits 1 if any failed.
//
// Byte-exact properties of the same paths are go tests, not gates: the
// scatter-gather wire bytes in TestBatchedPullFrameCount
// (internal/transport/tcpnet) and a remap round's inter-node byte win in
// TestApplyMigratesByteIdentically (internal/remap).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
	gridSide     = 4  // blocks per domain side
	blockSide    = 32 // cells per block side: 8 KiB per transfer
)

// rig is the staging every gate times: a machine whose cross-node
// operations round-trip through loopback sockets, a space over a grid of
// blocks, one producer handle per block (round-robin over all cores) and a
// consumer on core 0.
type rig struct {
	f        *transport.Fabric
	b        *tcpnet.Backend
	sp       *cods.Space
	domain   geometry.BBox
	blocks   []geometry.BBox
	data     [][]float64
	owners   []*cods.Handle
	consumer *cods.Handle
}

func newRig() (*rig, error) {
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		return nil, err
	}
	f := transport.NewFabric(m)
	pol := retry.Default()
	pol.Deadline = 10 * time.Second
	// The elastic gate's lease probes name incarnation 1.
	b, err := tcpnet.NewLoopback(f, tcpnet.Config{Retry: pol, IOTimeout: 10 * time.Second, Incarnation: 1})
	if err != nil {
		return nil, err
	}
	f.SetBackend(b)
	r := &rig{f: f, b: b, domain: geometry.BoxFromSize([]int{gridSide * blockSide, gridSide * blockSide})}
	if r.sp, err = cods.NewSpace(f, r.domain); err != nil {
		r.close()
		return nil, err
	}
	for n := 0; n < gridSide*gridSide; n++ {
		bx, by := n/gridSide, n%gridSide
		blk := geometry.NewBBox(
			geometry.Point{bx * blockSide, by * blockSide},
			geometry.Point{(bx + 1) * blockSide, (by + 1) * blockSide})
		data := make([]float64, blk.Volume())
		for i := range data {
			data[i] = float64(n + i)
		}
		r.blocks = append(r.blocks, blk)
		r.data = append(r.data, data)
		r.owners = append(r.owners, r.sp.HandleAt(cluster.CoreID(n%m.TotalCores()), 1, "put"))
	}
	r.consumer = r.sp.HandleAt(0, 2, "get")
	return r, nil
}

func (r *rig) close() {
	r.f.SetBackend(nil)
	r.b.Close()
}

// pullBatch is how many retrievals share one timing measurement.
const pullBatch = 4

// pairedPulls stages every block as version 0 of "u" and measures a
// toggle's cost on batches of retrievals of the half-block-inset region,
// which every boundary block's owner has to clip.
func (r *rig) pairedPulls(reps int, set func(on bool)) (overhead, slowerFrac float64, err error) {
	for i, h := range r.owners {
		if err := h.PutSequential("u", 0, r.blocks[i], r.data[i]); err != nil {
			return 0, 0, err
		}
	}
	inset := geometry.NewBBox(
		geometry.Point{blockSide / 2, blockSide / 2},
		geometry.Point{r.domain.Max[0] - blockSide/2, r.domain.Max[1] - blockSide/2})
	// Warm the schedule cache and the connection pool so only pull
	// execution is timed.
	set(false)
	if _, err := r.consumer.GetSequential("u", 0, inset); err != nil {
		return 0, 0, err
	}
	return pairedOverhead(reps, func(on bool, _ int) (time.Duration, error) {
		set(on)
		defer set(false)
		start := time.Now()
		for i := 0; i < pullBatch; i++ {
			if _, err := r.consumer.GetSequential("u", 0, inset); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
}

// pairedOverhead alternates disabled and enabled batches and estimates the
// enabled mode's relative overhead as the median of the per-pair duration
// differences over the median disabled duration, plus the fraction of
// pairs in which the enabled batch was the slower one. Adjacent batches
// see the same machine drift, so each pair cancels it; the order within a
// pair flips every repetition so neither mode systematically runs on a
// warmer machine; and the median discards the heavy-tailed scheduler
// outliers that make single-batch comparisons swing far more than a real
// overhead budget.
func pairedOverhead(reps int, batch func(on bool, rep int) (time.Duration, error)) (overhead, slowerFrac float64, err error) {
	offs := make([]time.Duration, 0, reps)
	diffs := make([]time.Duration, 0, reps)
	slower := 0
	for i := 0; i < reps; i++ {
		first := i%2 == 1 // odd reps run the enabled batch first
		dA, err := batch(first, i)
		if err != nil {
			return 0, 0, err
		}
		dB, err := batch(!first, i)
		if err != nil {
			return 0, 0, err
		}
		dOff, dOn := dA, dB
		if first {
			dOff, dOn = dB, dA
		}
		offs = append(offs, dOff)
		diffs = append(diffs, dOn-dOff)
		if dOn > dOff {
			slower++
		}
	}
	return float64(median(diffs)) / float64(median(offs)), float64(slower) / float64(reps), nil
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

// distributedObsGate toggles the whole observability plane at once —
// registry on plus a live tracer (which makes every pull stamp its span id
// into the wire frames and every served operation emit a buffered handler
// span) versus everything off — so the measured overhead is the full price
// of running a TCP workload observed end to end.
func distributedObsGate(r *rig, reps int) (float64, float64, error) {
	r.b.EnableSpanCapture()
	tr := obs.NewTracer(io.Discard)
	overhead, slower, err := r.pairedPulls(reps, func(on bool) {
		obs.Enable(on)
		if on {
			r.sp.SetTracer(tr)
		} else {
			r.sp.SetTracer(nil)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	// Keep the span buffer bounded; the drain cost is outside the timed
	// batches by construction.
	return overhead, slower, r.b.DrainRemoteSpans(tr)
}

// retryGate enables the transfer retry policy on a fault-free fabric: no
// fault fires, so no backoff is ever slept and the measured overhead is
// the retry bookkeeping around each transfer batch.
func retryGate(r *rig, reps int) (float64, float64, error) {
	return r.pairedPulls(reps, func(on bool) {
		if on {
			r.sp.SetRetryPolicy(retry.Default())
		} else {
			r.sp.SetRetryPolicy(retry.Policy{})
		}
	})
}

// elasticGate runs the membership layer at steady state: every node holds
// a lease renewed by ProbeLease heartbeats over the same loopback backend
// the pulls use, and the expiry sweep runs at the same cadence — but no
// lease ever expires, so the measured overhead is pure lease-plane traffic
// contending with pull traffic plus registry bookkeeping, the price a
// cluster pays for crash detection when nothing crashes.
func elasticGate(r *rig, reps int) (float64, float64, error) {
	// Leases far longer than the heartbeat: renewals always land in time,
	// so the sweep never expires anything — steady state by construction.
	reg := membership.NewRegistry(time.Minute)
	for node := 0; node < nodes; node++ {
		if err := reg.Join(cluster.NodeID(node), "", 1); err != nil {
			return 0, 0, err
		}
	}
	const heartbeat = 2 * time.Millisecond
	var mon *membership.Monitor
	var sweepStop chan struct{}
	overhead, slower, err := r.pairedPulls(reps, func(on bool) {
		if on {
			mon = membership.NewMonitor(reg, heartbeat, func(node cluster.NodeID, inc uint64) error {
				_, err := r.b.ProbeLease(node, inc)
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
	})
	if err != nil {
		return 0, 0, err
	}
	for _, mem := range reg.Members() {
		if mem.State != "alive" {
			return 0, 0, fmt.Errorf("node %d's lease expired at steady state — heartbeats did not keep up", mem.Node)
		}
	}
	return overhead, slower, nil
}

// streamingGate times the streaming coupling mode against the classic
// sequence it generalizes. Each pair moves identical bytes through
// identical placement: a put per block, a full-domain get and a discard
// per block for every version on one side; a publish per block, a windowed
// cursor read and a cursor advance (which retires the version through the
// same DiscardSequential) on the other. The measured difference is pure
// stream bookkeeping — watermark and cursor accounting under the stream
// lock, retirement routing.
func streamingGate(r *rig, reps int) (float64, float64, error) {
	const versions = 2
	classic := func(v string) (time.Duration, error) {
		start := time.Now()
		for ver := 0; ver < versions; ver++ {
			for i, h := range r.owners {
				if err := h.PutSequential(v, ver, r.blocks[i], r.data[i]); err != nil {
					return 0, err
				}
			}
			if _, err := r.consumer.GetSequential(v, ver, r.domain); err != nil {
				return 0, err
			}
			for i, h := range r.owners {
				if err := h.DiscardSequential(v, ver, r.blocks[i]); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}
	streamed := func(v string) (time.Duration, error) {
		// Declaration and subscription are mode setup, paid once per
		// stream lifetime; the timed section is the steady-state loop.
		if err := r.sp.DeclareStream(v, cods.StreamConfig{
			Producers: len(r.owners), MaxLag: versions, Policy: cods.Backpressure,
		}); err != nil {
			return 0, err
		}
		cur, err := r.consumer.Subscribe(v)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for ver := 0; ver < versions; ver++ {
			for i, h := range r.owners {
				if _, err := h.Publish(v, i, r.blocks[i], r.data[i]); err != nil {
					return 0, err
				}
			}
			if _, err := cur.GetWindow(r.domain, ver, ver); err != nil {
				return 0, err
			}
			if err := cur.Advance(ver + 1); err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		for i, h := range r.owners {
			if err := h.ClosePublisher(v, i); err != nil {
				return 0, err
			}
		}
		return d, cur.Close()
	}
	// One untimed batch of each warms the sockets and code paths.
	if _, err := classic("warm-c"); err != nil {
		return 0, 0, err
	}
	if _, err := streamed("warm-s"); err != nil {
		return 0, 0, err
	}
	return pairedOverhead(reps, func(on bool, rep int) (time.Duration, error) {
		if on {
			return streamed(fmt.Sprintf("s%d", rep))
		}
		return classic(fmt.Sprintf("c%d", rep))
	})
}

// remapPlannerGate runs a planner loop at a 1ms cadence while the timed
// pulls proceed — each tick rebuilds the observed flow matrix from the
// machine's flow log and re-scores the block→core mapping against it,
// exactly what an adaptive driver does between coupled iterations. No plan
// is applied, so the placement never changes; the measured overhead is
// planner CPU plus the metrics-mutex contention its flow-log snapshots add
// to the recording path.
func remapPlannerGate(r *rig, reps int) (float64, float64, error) {
	// The planner scores the real staged blocks, so the puts run through a
	// ledger exactly as a remap-capable driver stages them.
	ledger := membership.NewLedger()
	r.sp.SetPutRecorder(ledger)
	m := r.f.Machine()
	var stop, done chan struct{}
	return r.pairedPulls(reps, func(on bool) {
		if on {
			blocks := remap.LedgerBlocks(ledger)
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
	})
}

// run measures every gate on a fresh rig, prints one verdict line per
// gate and returns the failures joined, so a gate tripping on noise never
// hides the verdict of the gates after it.
func run(reps int, threshold float64) error {
	gates := []struct {
		name    string
		budget  float64
		measure func(r *rig, reps int) (overhead, slowerFrac float64, err error)
	}{
		{"distributed obs", threshold, distributedObsGate},
		{"retry", threshold, retryGate},
		{"elastic", 0.03, elasticGate},
		{"streaming", 0.05, streamingGate},
		{"remap planner", 0.03, remapPlannerGate},
	}
	var failures []error
	for _, g := range gates {
		r, err := newRig()
		if err != nil {
			return err
		}
		overhead, slower, err := g.measure(r, reps)
		r.close()
		switch {
		case err != nil:
			err = fmt.Errorf("%s gate: %w", g.name, err)
			fmt.Printf("ERROR %v\n", err)
		case overhead > g.budget && slower >= signBar:
			err = fmt.Errorf("%s overhead %.2f%% exceeds budget %.0f%% (slower in %.0f%% of pairs)",
				g.name, 100*overhead, 100*g.budget, 100*slower)
			fmt.Printf("FAIL  %v\n", err)
		default:
			fmt.Printf("PASS  %s overhead %+.2f%% (slower in %.0f%% of pairs; budget %.0f%%)\n",
				g.name, 100*overhead, 100*slower, 100*g.budget)
		}
		if err != nil {
			failures = append(failures, err)
		}
	}
	return errors.Join(failures...)
}

func main() {
	reps := flag.Int("reps", 25, "paired timing repetitions (median pair difference kept)")
	threshold := flag.Float64("threshold", 0.05, "maximum allowed relative overhead of the distributed obs and retry gates")
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}
	if err := run(*reps, *threshold); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}
