// Command codsrun executes a coupled workflow described by a DAG file on a
// simulated multi-core machine, using synthetic producer/consumer
// applications, and reports the traffic and timing the framework measured.
//
// The DAG file is the whole workload: MACHINE, HALO (none: no stencil
// exchange), DOMAIN and one DECOMP line per application.
// The first application of a multi-application bundle produces data that
// the bundle's other applications consume concurrently; an application
// with workflow parents consumes the data its parent produced
// sequentially; other applications produce data sequentially.
//
// Example (the paper's online data processing scenario):
//
//	printf 'MACHINE 12 4\nHALO 1\nAPP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n' > online.dag
//	printf 'DOMAIN 32 32 32\nDECOMP 1 blocked 4 4 2\nDECOMP 2 blocked 2 2 2\n' >> online.dag
//	codsrun -dag online.dag -policy data-centric
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/apps"
	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// options collects every knob of one codsrun invocation.
type options struct {
	curve           string
	dagPath         string
	policyName      string
	iterations      int
	verify, verbose bool
	flowsPath       string
	reportPath      string
	spansPath       string
	obsHTTP         string
	nodeObsHTTP     string
	pprof           bool
	faultsPath      string
	retrySpec       string
	backend         string
	codsnodePath    string
	elastic         bool
	chaosKill       int
	chaosAfter      int
	stream          bool
	streamRounds    int
	streamLag       int
	streamPolicy    string
}

func main() {
	var o options
	flag.StringVar(&o.curve, "curve", "", "lookup linearization policy: hilbert (default), morton or rowmajor")
	flag.StringVar(&o.dagPath, "dag", "", "workflow description file, with MACHINE and DOMAIN lines and a DECOMP line per application (required)")
	flag.StringVar(&o.policyName, "policy", "data-centric", "task mapping: data-centric or round-robin")
	flag.IntVar(&o.iterations, "iterations", 1, "coupling iterations for concurrent bundles")
	flag.BoolVar(&o.verify, "verify", true, "verify retrieved data cell by cell")
	flag.StringVar(&o.flowsPath, "flows", "", "write the recorded transfer flows as JSON Lines to this file")
	flag.StringVar(&o.reportPath, "report", "", "enable the metrics registry and write a reconciled JSON report to this file")
	flag.StringVar(&o.spansPath, "spans", "", "write parent-linked span events as JSON Lines to this file")
	flag.StringVar(&o.obsHTTP, "obs-http", "", "serve the metrics registry over HTTP on this address (e.g. :8970)")
	flag.StringVar(&o.nodeObsHTTP, "node-obs-http", "", "with -backend=tcp, serve each codsnode's registry over HTTP "+
		"on this address (use port 0 to pick a free port per child)")
	flag.BoolVar(&o.pprof, "pprof", false, "also serve net/http/pprof handlers on the -obs-http and -node-obs-http listeners")
	flag.StringVar(&o.faultsPath, "faults", "", "JSON fault plan to inject into the fabric (see ParseFaultPlan)")
	flag.StringVar(&o.retrySpec, "retry", "", "retry policy of gets, puts and lookups: attempt count (e.g. 4) or "+
		"attempts=4,base=200us,cap=50ms,deadline=5s")
	flag.StringVar(&o.backend, "backend", "inproc", "transport backend: inproc (single process) or "+
		"tcp (one codsnode child process per node, operations over loopback TCP)")
	flag.StringVar(&o.codsnodePath, "codsnode", "", "path to the codsnode binary for -backend=tcp "+
		"(default: next to this binary, then $PATH)")
	flag.BoolVar(&o.elastic, "elastic", false, "with -backend=tcp, run the elastic membership layer: a codsnode "+
		"child that exits is replaced and its staged data re-staged automatically")
	flag.IntVar(&o.chaosKill, "chaos-kill", -1, "with -elastic, kill this node's codsnode child once staging is done "+
		"and a block it owns is fully staged, to exercise crash recovery under live traffic (-1 disables)")
	flag.IntVar(&o.chaosAfter, "chaos-after", 0, "with -chaos-kill, fire no earlier than the staged table holding this many "+
		"blocks (0: no earlier than the table stops growing)")
	flag.BoolVar(&o.stream, "stream", false, "couple multi-application bundles through a bounded-lag version stream "+
		"(publish/subscribe cursors) instead of lock-step iterations")
	flag.IntVar(&o.streamRounds, "stream-rounds", 8, "with -stream, versions each producer publishes")
	flag.IntVar(&o.streamLag, "stream-lag", 2, "with -stream, max versions a consumer may trail the watermark")
	flag.StringVar(&o.streamPolicy, "stream-policy", "backpressure", "with -stream, lag policy: backpressure or drop-oldest")
	flag.BoolVar(&o.verbose, "v", false, "print the per-node task placement of every stage")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "codsrun: %v\n", err)
		os.Exit(1)
	}
}

// parseRetrySpec builds a retry policy from the -retry flag: either a bare
// attempt count (the default policy with that budget) or a comma-separated
// key=value list of attempts, base, cap and deadline. Durations must not
// be negative.
func parseRetrySpec(spec string) (cods.RetryPolicy, error) {
	pol := cods.DefaultRetryPolicy()
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 1 {
			return pol, fmt.Errorf("-retry attempts %d < 1", n)
		}
		pol.MaxAttempts = n
		return pol, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return pol, fmt.Errorf("bad -retry element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "attempts":
			pol.MaxAttempts, err = strconv.Atoi(v)
		case "base":
			pol.BaseDelay, err = time.ParseDuration(v)
		case "cap":
			pol.MaxDelay, err = time.ParseDuration(v)
		case "deadline":
			pol.Deadline, err = time.ParseDuration(v)
		default:
			return pol, fmt.Errorf("unknown -retry key %q", k)
		}
		if err != nil {
			return pol, fmt.Errorf("bad -retry value %q for %s: %v", v, k, err)
		}
	}
	switch {
	case pol.MaxAttempts < 1:
		return pol, fmt.Errorf("-retry attempts %d < 1", pol.MaxAttempts)
	case pol.BaseDelay < 0:
		return pol, fmt.Errorf("-retry base %s < 0", pol.BaseDelay)
	case pol.MaxDelay < 0:
		return pol, fmt.Errorf("-retry cap %s < 0", pol.MaxDelay)
	case pol.Deadline < 0:
		return pol, fmt.Errorf("-retry deadline %s < 0", pol.Deadline)
	}
	return pol, nil
}

func run(o options) error {
	if o.dagPath == "" {
		return fmt.Errorf("-dag is required")
	}
	switch {
	case o.iterations < 1:
		return fmt.Errorf("-iterations %d < 1", o.iterations)
	case o.streamRounds < 1:
		return fmt.Errorf("-stream-rounds %d < 1", o.streamRounds)
	case o.chaosAfter < 0:
		return fmt.Errorf("-chaos-after %d < 0", o.chaosAfter)
	case o.chaosKill < -1:
		return fmt.Errorf("-chaos-kill %d < -1 (-1 disables)", o.chaosKill)
	}
	var policy cods.Policy
	switch o.policyName {
	case "data-centric":
		policy = cods.DataCentric
	case "round-robin":
		policy = cods.RoundRobin
	default:
		return fmt.Errorf("unknown policy %q", o.policyName)
	}
	var streamPol cods.StreamPolicy
	if o.stream {
		switch o.streamPolicy {
		case "backpressure":
			streamPol = cods.Backpressure
		case "drop-oldest":
			streamPol = cods.DropOldest
		default:
			return fmt.Errorf("unknown stream policy %q (want backpressure or drop-oldest)", o.streamPolicy)
		}
	}
	f, err := os.Open(o.dagPath)
	if err != nil {
		return err
	}
	d, err := cods.ParseWorkflow(f)
	f.Close()
	if err != nil {
		return err
	}
	if d.Nodes == 0 {
		return fmt.Errorf("%s: no MACHINE declared", o.dagPath)
	}
	decomps, err := d.Decompositions()
	if err != nil {
		return fmt.Errorf("%s: %w", o.dagPath, err)
	}
	fw, err := cods.New(cods.Config{Nodes: d.Nodes, CoresPerNode: d.CoresPerNode, Domain: d.Domain, Curve: o.curve})
	if err != nil {
		return err
	}

	// Observability: the registry costs one atomic load per hot-path probe
	// when off, so it is only switched on when some output wants it. It is
	// enabled before any transport backend starts, so the wire-mirror
	// counters see every byte (handshakes included) and reconcile exactly
	// against the backend's own accounting.
	if o.reportPath != "" || o.obsHTTP != "" || o.nodeObsHTTP != "" {
		cods.EnableObservability(true)
		defer cods.EnableObservability(false)
	}
	if o.obsHTTP != "" {
		h := obs.NewHandler(obs.Default, obs.HandlerOpts{
			Flows: func() []cluster.Flow { return fw.MachineInfo().Metrics().Flows("") },
			Pprof: o.pprof,
		})
		srv, err := obs.Serve(o.obsHTTP, h)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics registry at http://%s/metrics (flow matrix at /flows)\n", srv.Addr())
	}
	var spansOut *os.File
	if o.spansPath != "" {
		spansOut, err = os.Create(o.spansPath)
		if err != nil {
			return err
		}
		defer spansOut.Close()
		fw.SetSpanTrace(spansOut)
	}

	// Transport backend: with -backend=tcp one codsnode child process is
	// launched per node and every data operation crosses real sockets.
	var tcpBE *tcpnet.Backend
	var tc *tcpCluster
	switch o.backend {
	case "", "inproc":
		if o.elastic {
			return fmt.Errorf("-elastic needs -backend=tcp (it watches codsnode processes)")
		}
	case "tcp":
		tc, err = startTCPBackend(fw, o, d)
		if err != nil {
			return err
		}
		tcpBE = tc.be
		defer tc.stop(fw)
	default:
		return fmt.Errorf("unknown backend %q (want inproc or tcp)", o.backend)
	}

	// Fault injection and recovery knobs.
	var plan *cods.FaultPlan
	if o.faultsPath != "" {
		data, err := os.ReadFile(o.faultsPath)
		if err != nil {
			return err
		}
		plan, err = cods.ParseFaultPlan(data)
		if err != nil {
			return err
		}
		fw.SetFaultPlan(plan)
		fmt.Printf("fault plan %s installed\n", o.faultsPath)
	}
	if o.retrySpec != "" {
		pol, err := parseRetrySpec(o.retrySpec)
		if err != nil {
			return err
		}
		fw.SetRetryPolicy(pol)
	}

	// Elastic membership: a loop that replaces each codsnode child that
	// exits and re-stages its data while the workflow keeps running.
	var el *elastic
	if o.elastic {
		el = startElastic(fw, tc)
		defer el.Stop()
		fmt.Printf("elastic membership: watching %d codsnode processes\n", d.Nodes)
		if o.chaosKill >= 0 {
			if o.chaosKill >= d.Nodes {
				return fmt.Errorf("-chaos-kill %d out of range (0..%d)", o.chaosKill, d.Nodes-1)
			}
			el.startChaos(o.chaosKill, o.chaosAfter)
		}
	} else if o.chaosKill >= 0 {
		return fmt.Errorf("-chaos-kill needs -elastic")
	}

	// Classify each application by its workflow role and register the
	// matching synthetic subroutine.
	bundleOf := make(map[int][]int)
	for _, b := range d.Bundles {
		for _, a := range b {
			bundleOf[a] = b
		}
	}
	for _, id := range d.Apps {
		dc, ok := decomps[id]
		if !ok {
			return fmt.Errorf("%s: application %d has no DECOMP line", o.dagPath, id)
		}
		bundle := bundleOf[id]
		spec := cods.AppSpec{ID: id, Decomp: dc}
		switch {
		case len(bundle) > 1 && bundle[0] == id && o.stream:
			v := fmt.Sprintf("data.%d", id)
			// One producer index per published piece, assigned densely in
			// rank-major order (apps.StreamProducerIndexBase).
			producers := 0
			for r := 0; r < dc.NumTasks(); r++ {
				producers += len(dc.Region(r))
			}
			if err := fw.DeclareStream(v, cods.StreamConfig{
				Producers: producers, MaxLag: o.streamLag, Policy: streamPol,
			}); err != nil {
				return err
			}
			spec.Run = apps.NewStreamProducer(apps.StreamProducerConfig{
				Var: v, Rounds: o.streamRounds, Halo: d.Halo,
			})
			fmt.Printf("app %d: stream producer (%d tasks, %d indices, %d rounds, lag %d, %s policy, %s)\n",
				id, dc.NumTasks(), producers, o.streamRounds, o.streamLag, streamPol, dc)
		case len(bundle) > 1 && o.stream:
			spec.Run = apps.NewStreamConsumer(apps.StreamConsumerConfig{
				Var: fmt.Sprintf("data.%d", bundle[0]), Rounds: o.streamRounds, Halo: d.Halo, Verify: o.verify,
			})
			fmt.Printf("app %d: stream consumer of app %d (%d tasks, %s)\n", id, bundle[0], dc.NumTasks(), dc)
		case len(bundle) > 1 && bundle[0] == id:
			spec.Run = apps.NewProducer(apps.ProducerConfig{
				Var: fmt.Sprintf("data.%d", id), Iterations: o.iterations, Halo: d.Halo,
				Mode: apps.Concurrent,
			})
			fmt.Printf("app %d: concurrent producer (%d tasks, %s)\n", id, dc.NumTasks(), dc)
		case len(bundle) > 1:
			spec.Run = apps.NewConsumer(apps.ConsumerConfig{
				Var: fmt.Sprintf("data.%d", bundle[0]), Producer: bundle[0],
				Iterations: o.iterations, Halo: d.Halo, Mode: apps.Concurrent, Verify: o.verify,
			})
			fmt.Printf("app %d: concurrent consumer of app %d (%d tasks, %s)\n", id, bundle[0], dc.NumTasks(), dc)
		case len(d.Parents(id)) > 0:
			parent := d.Parents(id)[0]
			spec.Run = apps.NewConsumer(apps.ConsumerConfig{
				Var: fmt.Sprintf("data.%d", parent), Iterations: 1, Halo: d.Halo,
				Mode: apps.Sequential, Verify: o.verify,
			})
			spec.ReadsVar = fmt.Sprintf("data.%d", parent)
			fmt.Printf("app %d: sequential consumer of app %d (%d tasks, %s)\n", id, parent, dc.NumTasks(), dc)
		default:
			spec.Run = apps.NewProducer(apps.ProducerConfig{
				Var: fmt.Sprintf("data.%d", id), Iterations: 1, Halo: d.Halo,
				Mode: apps.Sequential,
			})
			fmt.Printf("app %d: sequential producer (%d tasks, %s)\n", id, dc.NumTasks(), dc)
		}
		if err := fw.RegisterApp(spec); err != nil {
			return err
		}
	}

	start := time.Now()
	rep, err := fw.RunWorkflow(d, policy)
	wall := time.Since(start)
	if err != nil {
		return err
	}
	// A convergence still in flight at workflow end must finish before any
	// child is asked for its accounting — and a convergence failure is a
	// run failure even when every task happened to complete.
	if el != nil {
		if err := el.Settle(30 * time.Second); err != nil {
			return err
		}
	}
	// Remote endpoint groups meter the transfers they execute; fold their
	// accounting into the driver before any traffic is reported, and
	// splice the handler spans the children captured into the driver's
	// trace so the merged file holds one cross-process span tree.
	if tcpBE != nil {
		if err := tcpBE.MergeRemoteStats(); err != nil {
			return fmt.Errorf("collecting remote transfer stats: %w", err)
		}
		if tr := fw.SpanTracer(); tr != nil {
			if err := tcpBE.DrainRemoteSpans(tr); err != nil {
				return fmt.Errorf("collecting remote spans: %w", err)
			}
		}
	}
	fmt.Printf("\nworkflow complete: %d bundles, %d tasks, policy %s\n",
		rep.BundlesRun, rep.TasksRun, rep.Policy)
	if plan != nil {
		fmt.Printf("faults: %d errors + %d delays injected\n", plan.Injected(), plan.Delayed())
	}
	if o.verbose {
		printed := map[*cluster.Placement]bool{}
		for _, id := range d.Apps {
			pl := rep.PlacementOf[id]
			if pl == nil || printed[pl] {
				continue
			}
			printed[pl] = true
			fmt.Printf("placement (apps sharing app %d's stage):\n%s", id, mapping.Describe(fw.MachineInfo(), pl))
		}
	}
	if o.stream {
		pub, consumed, dropped := fw.StreamStats()
		fmt.Printf("stream:         %d versions published, %d consumed, %d dropped (%s policy, lag %d)\n",
			pub, consumed, dropped, streamPol, o.streamLag)
	}
	tr := fw.Traffic()
	fmt.Printf("coupled data:   %12d B network, %12d B shared memory (%.1f%% in-situ)\n",
		tr.CoupledNetwork, tr.CoupledShm, 100*ratio(tr.CoupledShm, tr.CoupledNetwork+tr.CoupledShm))
	fmt.Printf("intra-app data: %12d B network, %12d B shared memory\n", tr.IntraNetwork, tr.IntraShm)
	fmt.Printf("control:        %12d B network, %12d B shared memory\n", tr.ControlNetwork, tr.ControlShm)
	fmt.Printf("workflow wall time: %.3f ms\n", float64(wall)/float64(time.Millisecond))
	if o.flowsPath != "" {
		out, err := os.Create(o.flowsPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := fw.WriteFlows(out); err != nil {
			return err
		}
		fmt.Printf("flow trace written to %s\n", o.flowsPath)
	}
	if spansOut != nil {
		if err := fw.FlushSpans(); err != nil {
			return err
		}
		fmt.Printf("span trace written to %s\n", o.spansPath)
	}
	if o.reportPath != "" {
		if err := writeReport(fw, d, o, rep, tcpBE, el); err != nil {
			return err
		}
		fmt.Printf("observability report written to %s\n", o.reportPath)
	}
	return nil
}

// writeReport snapshots the metrics registry and reconciles its transport
// counters against the fabric's independent per-medium accounting; any
// mismatch means an instrumented path drifted from the metering choke
// point. With -backend=tcp the report additionally carries one section
// per codsnode process, each reconciling that child's shipped registry
// snapshot against the fabric stats and wire counters shipped in the
// same stats reply — and its dialed-connection bytes against 0, since a
// codsnode never dials — plus a driver-side check of the wire-mirror counters
// against the backend's own byte accounting. With -elastic the report also
// reconciles the membership counters — child exits the watchers detected,
// migrated bytes and blocks, re-registered records — against the
// reconciler's summed results: detector and reconciler count each crash
// independently, and a recovery that moved data is accounted delta-0 too.
func writeReport(fw *cods.Framework, d *cods.DAG, o options, rep *cods.Report, tcpBE *tcpnet.Backend, el *elastic) error {
	r := obs.NewReport("codsrun")
	r.SetMeta("dag", o.dagPath)
	r.SetMeta("policy", o.policyName)
	r.SetMeta("platform", fmt.Sprintf("%d nodes x %d cores", d.Nodes, d.CoresPerNode))
	r.SetMeta("bundles_run", strconv.Itoa(rep.BundlesRun))
	r.SetMeta("tasks_run", strconv.Itoa(rep.TasksRun))
	r.SetMeta("faults_injected", strconv.FormatInt(rep.FaultsInjected, 10))
	ms := fw.MediumStats()
	r.AddCheck("transport.shm.bytes", r.Metrics.Counters["transport.shm.bytes"], ms.ShmBytes)
	r.AddCheck("transport.shm.ops", r.Metrics.Counters["transport.shm.ops"], ms.ShmOps)
	r.AddCheck("transport.network.bytes", r.Metrics.Counters["transport.network.bytes"], ms.NetworkBytes)
	r.AddCheck("transport.network.ops", r.Metrics.Counters["transport.network.ops"], ms.NetworkOps)
	// The per-operation fault counters must sum to the fabric's independent
	// injected-fault total.
	faultSum := int64(0)
	for _, k := range []string{"transport.faults.send", "transport.faults.recv",
		"transport.faults.read", "transport.faults.call"} {
		faultSum += r.Metrics.Counters[k]
	}
	r.AddCheck("transport.faults.total", faultSum, fw.FaultsInjected())
	// Per-application received bytes by medium (the paper's Figure 9/10
	// breakdown), from the machine metrics rather than the registry.
	for _, id := range d.Apps {
		cShm, cNet, iShm, iNet := fw.AppTraffic(id)
		r.SetMeta(fmt.Sprintf("app%d.coupled_bytes", id), fmt.Sprintf("shm=%d network=%d", cShm, cNet))
		r.SetMeta(fmt.Sprintf("app%d.intra_bytes", id), fmt.Sprintf("shm=%d network=%d", iShm, iNet))
	}
	if o.stream {
		// The registry's stream counters must reconcile against the stream
		// layer's own per-version accounting.
		pub, consumed, dropped := fw.StreamStats()
		r.AddCheck("cods.stream.published", r.Metrics.Counters["cods.stream.published"], pub)
		r.AddCheck("cods.stream.consumed", r.Metrics.Counters["cods.stream.consumed"], consumed)
		r.AddCheck("cods.stream.dropped", r.Metrics.Counters["cods.stream.dropped"], dropped)
	}
	if tcpBE != nil {
		// The driver's wire-mirror counters are bumped at the same sites
		// as the backend's own byte accounting, so they must agree.
		ws := tcpBE.WireStats()
		r.AddCheck("tcpnet.bytes_out", r.Metrics.Counters["tcpnet.bytes_out"], ws.BytesOut)
		r.AddCheck("tcpnet.bytes_in", r.Metrics.Counters["tcpnet.bytes_in"], ws.BytesIn)
		for _, acct := range tcpBE.NodeAccounts() {
			n := r.AddNode(fmt.Sprintf("node%d", acct.Node), acct.Addr, acct.Registry)
			if !acct.Registry.Enabled {
				continue // child ran without -obs; nothing to reconcile
			}
			c := acct.Registry.Counters
			n.AddCheck("transport.shm.bytes", c["transport.shm.bytes"], acct.ShmBytes)
			n.AddCheck("transport.shm.ops", c["transport.shm.ops"], acct.ShmOps)
			n.AddCheck("transport.network.bytes", c["transport.network.bytes"], acct.NetBytes)
			n.AddCheck("transport.network.ops", c["transport.network.ops"], acct.NetOps)
			// These two count dialed connections only, and a serving process
			// never dials: reconciled against the literal 0, not the node's
			// own Wire copy, so a node that ever initiates an operation fails
			// the report.
			n.AddCheck("tcpnet.bytes_out", c["tcpnet.bytes_out"], 0)
			n.AddCheck("tcpnet.bytes_in", c["tcpnet.bytes_in"], 0)
			n.AddCheck("tcpnet.segments.served", c["tcpnet.segments.served"], acct.Wire.SegmentsServed)
			n.AddCheck("tcpnet.segments.bytes_served", c["tcpnet.segments.bytes_served"], acct.Wire.SegmentBytesServed)
		}
	}
	if el != nil {
		tot, _ := el.totals()
		c := r.Metrics.Counters
		r.AddCheck("membership.exits", c["membership.exits"], int64(len(tot.Affected)))
		r.AddCheck("membership.migrated_blocks", c["membership.migrated_blocks"], tot.RestagedCount)
		r.AddCheck("membership.migrated_bytes", c["membership.migrated_bytes"], tot.MigratedBytes)
		r.AddCheck("membership.reinserted_records", c["membership.reinserted_records"], tot.Reinserted)
	}
	return r.WriteFile(o.reportPath)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// findCodsnode locates the codsnode binary: the -codsnode flag, then next
// to this executable, then $PATH.
func findCodsnode(o options) (string, error) {
	if o.codsnodePath != "" {
		return o.codsnodePath, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "codsnode")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("codsnode"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("-backend=tcp needs the codsnode binary (build cmd/codsnode and pass -codsnode or put it on $PATH)")
}

// obsExits counts the child exits tcpCluster's watchers detected that
// nobody asked for; the -elastic report reconciles it against the nodes
// membership.Reconcile recovered.
var obsExits = obs.C("membership.exits")

// tcpCluster is the driver's handle on the codsnode child processes of a
// -backend=tcp run: the connected backend, the shared child arguments and
// the live children keyed by node, so the elastic loop can replace a
// single node's process while the rest serve. It is where a child's death
// is learned: each child has one watcher goroutine, the only caller of its
// cmd.Wait, and an exit that stop or reap did not ask for is sent on
// exits — the crash signal the elastic loop converges on.
type tcpCluster struct {
	be    *tcpnet.Backend
	bin   string
	args  []string // shared child flags, without -node
	nodes int

	exits chan exit
	quit  chan struct{} // closed by stop: no exit is reported after it

	mu       sync.Mutex
	children map[int]*child
}

// child is one spawned codsnode process.
type child struct {
	cmd    *exec.Cmd
	asked  atomic.Bool   // stop or reap asked it to exit: no crash
	exited chan struct{} // closed once cmd.Wait returned
}

// exit is a child's exit nobody asked for: its node and what cmd.Wait
// returned.
type exit struct {
	node int
	err  error
}

// startTCPBackend launches one codsnode child per node, collects their
// listen addresses and installs the connected TCP backend on the
// framework's fabric; the children learn nothing of each other.
func startTCPBackend(fw *cods.Framework, o options, d *cods.DAG) (*tcpCluster, error) {
	bin, err := findCodsnode(o)
	if err != nil {
		return nil, err
	}
	dims := make([]string, len(d.Domain))
	for i, n := range d.Domain {
		dims[i] = strconv.Itoa(n)
	}
	args := []string{
		"-nodes", strconv.Itoa(d.Nodes),
		"-cores", strconv.Itoa(d.CoresPerNode),
		"-domain", strings.Join(dims, "x"),
	}
	// Children mirror the driver's observability posture: a reconciled
	// report needs every child's registry counting from process start.
	// Span capture needs no switch: a child emits a handler span only for
	// an operation that carries the driver's trace context.
	if o.reportPath != "" || o.nodeObsHTTP != "" {
		args = append(args, "-obs")
	}
	if o.nodeObsHTTP != "" {
		args = append(args, "-obs-http", o.nodeObsHTTP)
		if o.pprof {
			args = append(args, "-pprof")
		}
	}
	tc := &tcpCluster{bin: bin, args: args, nodes: d.Nodes,
		exits: make(chan exit, d.Nodes), quit: make(chan struct{}),
		children: make(map[int]*child)}
	fail := func(err error) (*tcpCluster, error) {
		for node := 0; node < d.Nodes; node++ {
			tc.reap(node)
		}
		return nil, err
	}
	peers := make(map[cluster.NodeID]string, d.Nodes)
	for node := 0; node < d.Nodes; node++ {
		addr, err := tc.spawnNode(node)
		if err != nil {
			return fail(fmt.Errorf("codsnode %d: %w", node, err))
		}
		peers[cluster.NodeID(node)] = addr
	}
	var cfg tcpnet.Config
	if o.elastic {
		// A read that raced a node replacement, parked on a process that
		// will never receive the buffer, fails after 2 s and goes back to
		// the consumer's retry, which re-pulls against the reconciled
		// routing. Without -elastic a read waits for its producer forever.
		cfg.ReadPatience = 2 * time.Second
	}
	be, err := tcpnet.Connect(fw.TransportFabric(), peers, cfg)
	if err != nil {
		return fail(err)
	}
	tc.be = be
	fw.TransportFabric().SetBackend(be)
	return tc, nil
}

// spawnNode launches one codsnode child, starts its watcher, waits for its
// listen announcement, and records it as the node's serving process.
func (tc *tcpCluster) spawnNode(node int) (string, error) {
	cmd := exec.Command(tc.bin, append([]string{"-node", strconv.Itoa(node)}, tc.args...)...)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	// A pipe of this process's own, not cmd.StdoutPipe: the watcher's
	// cmd.Wait would close that one under the reader.
	stdout, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	cmd.Stdout = w
	err = cmd.Start()
	w.Close()
	if err != nil {
		stdout.Close()
		return "", fmt.Errorf("starting codsnode %d: %w", node, err)
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	go tc.watch(node, c)
	addr, obsAddr, err := scrapeChildAddrs(stdout)
	if err != nil {
		c.end()
		stdout.Close()
		return "", err
	}
	go func() {
		io.Copy(io.Discard, stdout)
		stdout.Close()
	}()
	tc.mu.Lock()
	tc.children[node] = c
	tc.mu.Unlock()
	fmt.Printf("codsnode %d serving at %s\n", node, addr)
	if obsAddr != "" {
		fmt.Printf("codsnode %d metrics at http://%s/metrics (flow matrix at /flows)\n", node, obsAddr)
	}
	return addr, nil
}

// watch waits for c to exit and, unless stop or reap asked it to, counts
// the exit before anyone sees it and reports it on exits. The report
// never blocks past stop.
func (tc *tcpCluster) watch(node int, c *child) {
	err := c.cmd.Wait()
	crash := !c.asked.Load()
	if crash {
		obsExits.Inc()
	}
	close(c.exited)
	if !crash {
		return
	}
	select {
	case tc.exits <- exit{node: node, err: err}:
	case <-tc.quit:
	}
}

// end asks c to exit by killing it, and returns once it has.
func (c *child) end() {
	c.asked.Store(true)
	c.cmd.Process.Kill()
	<-c.exited
}

// kill terminates a node's child unasked — the chaos hook's crash. Its
// watcher reports the exit, and the elastic loop reaps the child and
// spawns the replacement.
func (tc *tcpCluster) kill(node int) {
	tc.mu.Lock()
	c := tc.children[node]
	tc.mu.Unlock()
	if c != nil {
		c.cmd.Process.Kill()
	}
}

// reap ends a node's child (at once if it already exited) and frees the
// slot for a replacement spawn.
func (tc *tcpCluster) reap(node int) {
	tc.mu.Lock()
	c := tc.children[node]
	delete(tc.children, node)
	tc.mu.Unlock()
	if c != nil {
		c.end()
	}
}

// live reports whether each node has a child that has not exited.
func (tc *tcpCluster) live() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for node := 0; node < tc.nodes; node++ {
		c := tc.children[node]
		if c == nil {
			return false
		}
		select {
		case <-c.exited:
			return false
		default:
		}
	}
	return true
}

// scrapeChildAddrs reads the child's stdout until its CODSNODE LISTEN
// announcement, also capturing the CODSNODE OBS metrics address printed
// just before it when the child serves its registry over HTTP; EOF first
// means the child died before serving.
func scrapeChildAddrs(r io.Reader) (listen, obsAddr string, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "CODSNODE OBS "); ok {
			obsAddr = strings.TrimSpace(addr)
			continue
		}
		if addr, ok := strings.CutPrefix(sc.Text(), "CODSNODE LISTEN "); ok {
			return strings.TrimSpace(addr), obsAddr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", err
	}
	return "", "", fmt.Errorf("exited before announcing a listen address")
}

// stop restores in-process routing, asks every child to exit and waits
// for them, killing any straggler after a grace period.
func (tc *tcpCluster) stop(fw *cods.Framework) {
	fw.TransportFabric().SetBackend(nil)
	tc.mu.Lock()
	children := tc.children
	tc.children = make(map[int]*child)
	tc.mu.Unlock()
	for _, c := range children {
		c.asked.Store(true)
	}
	close(tc.quit)
	tc.be.ShutdownPeers()
	tc.be.Close()
	for _, c := range children {
		select {
		case <-c.exited:
		case <-time.After(5 * time.Second):
			c.cmd.Process.Kill()
			<-c.exited
		}
	}
}
