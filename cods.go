// Package cods is a distributed data sharing and task execution framework
// for the in-situ execution of coupled scientific workflows, reproducing
// Zhang et al., "Enabling In-situ Execution of Coupled Scientific Workflow
// on Multi-core Platform" (IPDPS 2012).
//
// A workflow is a DAG of data-parallel applications extended with
// "bundles" (applications scheduled simultaneously because they exchange
// data at runtime). The framework places the computation tasks of the
// coupled applications onto the cores of a simulated multi-core machine
// with a data-centric, locality-aware mapping, so that most of the coupled
// data moves through intra-node shared memory instead of the network:
//
//   - concurrently coupled bundles are mapped server-side by partitioning
//     the inter-application communication graph (a from-scratch multilevel
//     k-way partitioner plays the role of METIS);
//   - sequentially coupled consumers are mapped client-side: each
//     execution client queries the CoDS data-lookup service (a DHT over a
//     Hilbert space-filling-curve linearization of the data domain) and
//     re-dispatches its task to the node storing most of its input.
//
// Applications exchange data through the Co-located DataSpaces (CoDS)
// shared-space abstraction: PutConcurrent/GetConcurrent for direct
// producer-to-consumer coupling and PutSequential/GetSequential for
// staging through the distributed in-memory store. All transfers run on
// HybridDART, which picks shared memory or the network per transfer and
// meters every byte; the paper's transfer times are modelled only where
// its figures are rebuilt, in internal/bench. Producers
// and consumers are ordered by the workflow (DAG edges, bundles), by the
// version in every buffer key and by the receiver-driven read, which waits
// until its buffer is exposed: tasks take no locks.
//
// # Quick start
//
//	fw, err := cods.New(cods.Config{Nodes: 4, CoresPerNode: 4, Domain: []int{32, 32, 32}})
//	...
//	producerDecomp, _ := fw.BlockedDecomposition([]int{4, 4, 2})
//	fw.RegisterApp(cods.AppSpec{ID: 1, Decomp: producerDecomp, Run: produce})
//	...
//	report, err := fw.RunWorkflowText("APP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n", cods.DataCentric)
//
// See examples/ for complete programs and internal/bench for the
// reproduction of the paper's evaluation.
package cods

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/insitu/cods/internal/cluster"
	icods "github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/runtime"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/workflow"
)

// Re-exported core types; see the internal packages for full reference
// documentation.
type (
	// AppContext is the per-task view an application subroutine receives.
	AppContext = runtime.AppContext
	// AppFunc is an application subroutine, invoked once per task.
	AppFunc = runtime.AppFunc
	// AppSpec declares an application (id, decomposition, subroutine,
	// optionally the variable it reads from a sequential producer).
	AppSpec = runtime.AppSpec
	// Policy selects the task mapping strategy.
	Policy = runtime.Policy
	// Report summarizes a workflow run.
	Report = runtime.Report
	// DAG is a parsed workflow description.
	DAG = workflow.DAG
	// Decomposition maps a data domain onto application ranks.
	Decomposition = decomp.Decomposition
	// BBox is an axis-aligned region descriptor (inclusive Min, exclusive
	// Max), the geometric descriptor of the put/get operators.
	BBox = geometry.BBox
	// Point is an n-dimensional integer coordinate.
	Point = geometry.Point
	// ProducerInfo describes a concurrently coupled producer for
	// GetConcurrent.
	ProducerInfo = icods.ProducerInfo
	// FaultPlan is a compiled set of deterministic fault-injection rules
	// for the transport fabric (see ParseFaultPlan).
	FaultPlan = transport.FaultPlan
	// RetryPolicy bounds retried fabric operations: attempt budget,
	// exponential backoff with deterministic jitter, per-operation deadline.
	RetryPolicy = retry.Policy
	// PullError reports a data retrieval whose transfer ultimately failed;
	// it unwraps to the transport-level cause.
	PullError = icods.PullError
	// TaskError reports a computation task that failed; tasks run once.
	TaskError = runtime.TaskError
	// StreamConfig declares a stream's shape: producer rank count, lag
	// bound and the policy applied when the bound would be exceeded.
	StreamConfig = icods.StreamConfig
	// StreamPolicy selects what happens when a consumer falls more than
	// MaxLag versions behind the watermark.
	StreamPolicy = icods.StreamPolicy
	// Cursor is one consumer's subscription to a stream, returned by
	// AppContext.Space.Subscribe.
	Cursor = icods.Cursor
)

// Transport error sentinels, for errors.Is against failures surfacing from
// the put/get operators and the workflow runtime.
var (
	// ErrInjected marks failures produced by the fault injector.
	ErrInjected = transport.ErrInjected
	// ErrEndpointClosed marks operations against a closed endpoint; it is
	// terminal, never retried.
	ErrEndpointClosed = transport.ErrEndpointClosed
	// ErrStreamEnded marks operations against a stream whose producers
	// have all closed.
	ErrStreamEnded = icods.ErrStreamEnded
)

// Stream lag policies.
const (
	// Backpressure blocks a producer while the slowest cursor is MaxLag
	// versions behind.
	Backpressure = icods.Backpressure
	// DropOldest keeps the producer running and force-retires versions
	// older than MaxLag behind the watermark, bumping lagging cursors.
	DropOldest = icods.DropOldest
)

// DefaultRetryPolicy is the policy the command-line tools install when
// retrying is requested without explicit tuning.
func DefaultRetryPolicy() RetryPolicy { return retry.Default() }

// ParseFaultPlan loads and validates a deterministic fault plan from JSON:
//
//	{"seed": 42, "rules": [
//	  {"op": "read", "mode": "error", "prob": 0.05, "max": 40},
//	  {"op": "send", "medium": "shm", "mode": "delay", "delay_us": 50, "prob": 0.1}]}
//
// Malformed input returns an error, never a partially applied plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) {
	return transport.ParseFaultPlan(data)
}

// Mapping policies.
const (
	// DataCentric is the paper's contribution: server-side graph
	// partitioning for bundles, client-side locality mapping for
	// sequential consumers.
	DataCentric = runtime.DataCentric
	// RoundRobin is the launcher baseline.
	RoundRobin = runtime.RoundRobin
)

// ElemSize is the size in bytes of one domain cell (float64 fields).
const ElemSize = icods.ElemSize

// NewBBox builds a region descriptor from inclusive lower and exclusive
// upper corners, e.g. NewBBox(Point{0,0,0}, Point{10,10,20}).
func NewBBox(min, max Point) BBox { return geometry.NewBBox(min, max) }

// Config sizes the simulated platform and the coupled data domain.
type Config struct {
	// Nodes is the number of compute nodes of the allocation.
	Nodes int
	// CoresPerNode is the core count per node (the paper's Jaguar XT5
	// nodes have 12).
	CoresPerNode int
	// Domain is the size of the coupled data domain, one extent per
	// dimension.
	Domain []int
	// Seed makes the randomized mapping phases deterministic (default 1).
	Seed int64
	// Curve selects the linearization policy of the lookup index space:
	// "hilbert" (or empty, the paper's default), "morton" or "rowmajor".
	Curve string
}

// Framework is the top-level handle: a simulated machine, the CoDS space
// and the workflow management server.
type Framework struct {
	machine *cluster.Machine
	server  *runtime.Server
	domain  geometry.BBox
	tracer  *obs.Tracer
}

// New bootstraps the framework on a simulated machine.
func New(cfg Config) (*Framework, error) {
	if len(cfg.Domain) == 0 {
		return nil, fmt.Errorf("cods: empty domain")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	m, err := cluster.NewMachine(cfg.Nodes, cfg.CoresPerNode)
	if err != nil {
		return nil, err
	}
	domain := geometry.BoxFromSize(cfg.Domain)
	srv, err := runtime.NewServerWithCurve(m, domain, seed, cfg.Curve)
	if err != nil {
		return nil, err
	}
	return &Framework{machine: m, server: srv, domain: domain}, nil
}

// Domain returns the coupled data domain.
func (f *Framework) Domain() BBox { return f.domain.Clone() }

// MachineInfo exposes the simulated machine (topology, metrics) for
// advanced reporting.
func (f *Framework) MachineInfo() *cluster.Machine { return f.machine }

// BlockedDecomposition decomposes the framework's domain with a standard
// blocked distribution over the given process grid.
func (f *Framework) BlockedDecomposition(grid []int) (*Decomposition, error) {
	return decomp.New(decomp.Blocked, f.domain, grid, nil)
}

// CyclicDecomposition decomposes the domain cyclically (block size 1).
func (f *Framework) CyclicDecomposition(grid []int) (*Decomposition, error) {
	return decomp.New(decomp.Cyclic, f.domain, grid, nil)
}

// BlockCyclicDecomposition decomposes the domain block-cyclically with the
// given per-dimension block size.
func (f *Framework) BlockCyclicDecomposition(grid, block []int) (*Decomposition, error) {
	return decomp.New(decomp.BlockCyclic, f.domain, grid, block)
}

// RegisterApp declares an application to the framework. Applications are
// statically registered before the workflow runs, mirroring the paper's
// pre-linked MPI subroutines.
func (f *Framework) RegisterApp(spec AppSpec) error {
	return f.server.RegisterApp(spec)
}

// ParseWorkflow reads a DAG description in the paper's format (APP_ID,
// PARENT_APPID/CHILD_APPID, BUNDLE directives).
func ParseWorkflow(r io.Reader) (*DAG, error) { return workflow.Parse(r) }

// NewWorkflow builds a DAG programmatically; bundles may be nil, leaving
// every application in its own implicit bundle.
func NewWorkflow(apps []int, edges [][2]int, bundles [][]int) (*DAG, error) {
	return workflow.New(apps, edges, bundles)
}

// RunWorkflow executes a workflow to completion under the given mapping
// policy.
func (f *Framework) RunWorkflow(d *DAG, policy Policy) (*Report, error) {
	return f.server.Run(d, policy)
}

// RunWorkflowText parses a DAG description string and runs it.
func (f *Framework) RunWorkflowText(text string, policy Policy) (*Report, error) {
	d, err := ParseWorkflow(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return f.RunWorkflow(d, policy)
}

// TrafficReport is the byte accounting of a run, per medium and class.
type TrafficReport struct {
	// CoupledNetwork / CoupledShm are inter-application coupling bytes.
	CoupledNetwork, CoupledShm int64
	// IntraNetwork / IntraShm are intra-application exchange bytes.
	IntraNetwork, IntraShm int64
	// ControlNetwork / ControlShm are framework control bytes (lookup
	// queries, collective bookkeeping).
	ControlNetwork, ControlShm int64
}

// Traffic returns the bytes moved so far, as metered by HybridDART.
func (f *Framework) Traffic() TrafficReport {
	mt := f.machine.Metrics()
	return TrafficReport{
		CoupledNetwork: mt.Bytes(cluster.InterApp, cluster.Network),
		CoupledShm:     mt.Bytes(cluster.InterApp, cluster.SharedMemory),
		IntraNetwork:   mt.Bytes(cluster.IntraApp, cluster.Network),
		IntraShm:       mt.Bytes(cluster.IntraApp, cluster.SharedMemory),
		ControlNetwork: mt.Bytes(cluster.Control, cluster.Network),
		ControlShm:     mt.Bytes(cluster.Control, cluster.SharedMemory),
	}
}

// ResetTraffic clears the byte counters and the flow log (between
// experiments on one framework instance).
func (f *Framework) ResetTraffic() { f.machine.Metrics().Reset() }

// WriteFlows streams every transfer flow recorded so far to w as JSON
// Lines (one cluster.Flow per line: phase tag, source node, destination
// node, bytes, medium and class), for archiving or offline analysis.
func (f *Framework) WriteFlows(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, fl := range f.machine.Metrics().Flows("") {
		if err := enc.Encode(fl); err != nil {
			return fmt.Errorf("cods: writing flows: %w", err)
		}
	}
	return bw.Flush()
}

// MediumStats is the fabric's independent per-medium accounting: every
// transfer increments exactly one medium's bytes and ops at the transport
// choke point. It is the external truth the observability registry is
// reconciled against.
type MediumStats struct {
	ShmBytes, ShmOps         int64
	NetworkBytes, NetworkOps int64
}

// MediumStats returns the fabric's per-medium byte and operation totals.
func (f *Framework) MediumStats() MediumStats {
	fab := f.server.Fabric()
	return MediumStats{
		ShmBytes:     fab.MediumBytes(cluster.SharedMemory),
		ShmOps:       fab.MediumOps(cluster.SharedMemory),
		NetworkBytes: fab.MediumBytes(cluster.Network),
		NetworkOps:   fab.MediumOps(cluster.Network),
	}
}

// AppTraffic returns the bytes received by one application, split by
// medium, for the coupled (inter-application) and intra-application
// classes — the per-consumer breakdown of the paper's Figures 9 and 10.
func (f *Framework) AppTraffic(app int) (coupledShm, coupledNet, intraShm, intraNet int64) {
	mt := f.machine.Metrics()
	return mt.AppBytes(app, cluster.InterApp, cluster.SharedMemory),
		mt.AppBytes(app, cluster.InterApp, cluster.Network),
		mt.AppBytes(app, cluster.IntraApp, cluster.SharedMemory),
		mt.AppBytes(app, cluster.IntraApp, cluster.Network)
}

// EnableObservability switches the process-wide metrics registry on or
// off. Off (the default) leaves only one atomic load + branch on every
// instrumented hot path.
func EnableObservability(on bool) { obs.Enable(on) }

// SetSpanTrace starts span tracing: begin/end events for the workflow run,
// every bundle group, every task and every CoDS pull are written to w as
// JSON Lines, parent-linked so a reader can rebuild the execution tree.
// Pass nil to stop tracing. Call FlushSpans before reading the output.
func (f *Framework) SetSpanTrace(w io.Writer) {
	if w == nil {
		f.tracer = nil
		f.server.SetTracer(nil)
		return
	}
	f.tracer = obs.NewTracer(w)
	f.server.SetTracer(f.tracer)
}

// FlushSpans flushes buffered span events to the SetSpanTrace writer.
func (f *Framework) FlushSpans() error { return f.tracer.Flush() }

// SpanTracer returns the tracer installed by SetSpanTrace (nil when
// tracing is off), so a transport backend can merge remotely captured
// span events into the same output stream.
func (f *Framework) SpanTracer() *obs.Tracer { return f.tracer }

// SetFaultPlan installs a deterministic fault plan on the transport fabric
// (nil removes it). Every fabric operation consults the plan; with none
// installed the only cost is one atomic pointer load per operation.
func (f *Framework) SetFaultPlan(p *FaultPlan) { f.server.Fabric().SetFaultPlan(p) }

// SetRetryPolicy installs the retry policy of the data operations: the
// CoDS pulls, sequential puts and the lookup service's RPC fan-out. It is
// the one retry layer — tasks are never re-run. The zero policy (the
// default) disables retrying.
func (f *Framework) SetRetryPolicy(p RetryPolicy) { f.server.Space().SetRetryPolicy(p) }

// FaultsInjected returns the total number of error faults injected into
// the fabric since the framework was created, across all installed plans.
func (f *Framework) FaultsInjected() int64 { return f.server.Fabric().FaultsInjected() }

// TransportFabric exposes the framework's transport fabric, so a caller
// can install an alternative data-movement backend (Fabric.SetBackend)
// — e.g. the TCP backend that routes operations to codsnode processes.
func (f *Framework) TransportFabric() *transport.Fabric { return f.server.Fabric() }

// SharedSpace exposes the framework's CoDS shared space, so an elastic
// driver can reach what membership recovery needs: the staged table
// (SetKeepPayloads, Staged) and lookup re-registration through Lookup.
func (f *Framework) SharedSpace() *icods.Space { return f.server.Space() }

// DeclareStream registers a streaming coupling variable (DESIGN §5i). It
// must be called once before the workflow runs, with the stream's full
// producer count — one index per published piece; see
// apps.StreamProducerIndexBase for the dense rank-major assignment.
func (f *Framework) DeclareStream(v string, cfg StreamConfig) error {
	return f.server.Space().DeclareStream(v, cfg)
}

// StreamStats sums the streaming accounting over every declared stream:
// versions published, versions acknowledged by cursors, versions dropped
// past lagging cursors.
func (f *Framework) StreamStats() (published, consumed, dropped int64) {
	return f.server.Space().StreamStats()
}

// StreamState reports stream v's complete watermark and lowest retained
// version.
func (f *Framework) StreamState(v string) (latest, floor int, err error) {
	return f.server.Space().StreamState(v)
}
