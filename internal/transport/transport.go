// Package transport implements HybridDART, the communication layer of the
// framework (paper Section III-A). It provides asynchronous point-to-point
// messaging, an RPC-style call facility, and one-sided remotely accessible
// buffers with receiver-driven pulls.
//
// HybridDART's defining behaviour is dynamic transport selection: a
// transfer between two cores of the same compute node is performed through
// intra-node shared memory, while a transfer between cores of different
// nodes uses the network fabric (RDMA on the paper's Cray XT5). Here both
// paths are in-process copies; what differs — and what the evaluation
// measures — is the accounting: every transfer is recorded in the machine's
// metrics with its medium, traffic class and node endpoints, and the
// network simulator later replays those flows for timing.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
)

// ErrEndpointClosed marks operations against an endpoint that has been
// closed: Send to it, Recv on it, ReadMulti of its buffers, Call of its
// services. Callers test for it with errors.Is; it is terminal.
var ErrEndpointClosed = errors.New("endpoint closed")

// ErrReadPatience marks a deferred read abandoned after a bounded wait:
// the owner did not expose the requested buffer within the reader's
// patience window. It is Transient — the buffer may simply not have been
// staged yet, or the read may have been routed to a replacement process
// that never receives it — so a get re-resolves routing and pulls again.
var ErrReadPatience = Transient(errors.New("deferred read patience exhausted"))

// ErrTooLarge marks a payload larger than a network backend can carry in
// one frame. It is terminal: the same payload fails on every attempt.
var ErrTooLarge = errors.New("payload exceeds the wire limit")

// ErrExposed marks an Expose of a key its owner already exposes; terminal.
var ErrExposed = errors.New("transport: buffer already exposed")

// Transient marks err as one a retry can help with, where it is made: the
// condition behind it can pass (a fault, a lost connection, a buffer not
// exposed yet). internal/retry reads the mark through its Transient method
// (errors.As) and retries nothing else; the mark unwraps to err.
func Transient(err error) error { return &transient{err} }

type transient struct{ error }

func (*transient) Transient() bool { return true }

func (e *transient) Unwrap() error { return e.error }

// Registry instruments, indexed by cluster.Medium. The fabric's own
// per-instance counters (MediumBytes/MediumOps) and these process-wide
// counters are incremented at the same call site in record, so the obs
// registry is the aggregate view of the same numbers — run reports
// reconcile the two to detect instrumentation drift.
var (
	obsBytes = [2]*obs.Counter{
		cluster.SharedMemory: obs.C("transport.shm.bytes"),
		cluster.Network:      obs.C("transport.network.bytes"),
	}
	obsOps = [2]*obs.Counter{
		cluster.SharedMemory: obs.C("transport.shm.ops"),
		cluster.Network:      obs.C("transport.network.ops"),
	}
	obsTransferBytes = obs.H("transport.transfer_bytes", obs.DefaultSizeBounds())
)

// Meter carries the classification under which a transfer is recorded.
type Meter struct {
	// Phase tags the flow for timing analysis (e.g. "couple:2").
	Phase string
	// Class says whether the transfer crosses applications.
	Class cluster.Class
	// DstApp is the application id of the receiving task.
	DstApp int
	// Span is the requesting side's span identifier (obs.SpanID), the
	// trace context a remote backend propagates so the serving node can
	// parent its handler spans under the driver span that caused them.
	// 0 means "no active span". Observability-only: it never affects
	// metering or accounting.
	Span uint64
}

// Message is a tagged point-to-point payload.
type Message struct {
	Src     cluster.CoreID
	Tag     uint64
	Payload []byte
}

// BufKey names a one-sided buffer exposed by a core. Version separates the
// iterations of iterative applications.
type BufKey struct {
	Name    string
	Version int
}

// AnySource can be passed to Recv to match a message from any sender.
const AnySource cluster.CoreID = -1

// mediumStats counts transfers through one medium. The fields are updated
// atomically so the parallel pull engine's concurrent reads never contend
// on a lock just to be counted.
type mediumStats struct {
	bytes atomic.Int64
	ops   atomic.Int64
}

// Fabric connects all endpoints of a machine.
type Fabric struct {
	machine   *cluster.Machine
	endpoints []*Endpoint

	// stats holds lock-free per-medium transfer counters, indexed by
	// cluster.Medium. They complement the machine Metrics (which stay the
	// source of truth for the figures) with cheap fabric-level telemetry.
	stats [2]mediumStats

	// fault is the installed fault plan (nil = none); faultsInjected
	// counts error faults across all plans this fabric has carried.
	fault          atomic.Pointer[FaultPlan]
	faultsInjected atomic.Int64

	// backend executes every operation on node-held state: the fabric
	// itself in process, a network backend on a driver. See backend.go.
	backend Backend
}

// NewFabric creates a fabric with one endpoint per core of the machine.
func NewFabric(m *cluster.Machine) *Fabric {
	f := &Fabric{machine: m, endpoints: make([]*Endpoint, m.TotalCores())}
	for c := 0; c < m.TotalCores(); c++ {
		ep := &Endpoint{
			core:    cluster.CoreID(c),
			fabric:  f,
			exports: make(map[BufKey]any),
		}
		ep.inboxCond = sync.NewCond(&ep.mu)
		ep.exportCond = sync.NewCond(&ep.exportMu)
		f.endpoints[c] = ep
	}
	f.backend = f
	return f
}

// Machine returns the underlying machine.
func (f *Fabric) Machine() *cluster.Machine { return f.machine }

// Endpoint returns the endpoint of core c.
func (f *Fabric) Endpoint(c cluster.CoreID) *Endpoint {
	return f.endpoints[int(c)]
}

// medium classifies a transfer between two cores.
func (f *Fabric) medium(src, dst cluster.CoreID) cluster.Medium {
	if f.machine.SameNode(src, dst) {
		return cluster.SharedMemory
	}
	return cluster.Network
}

// record books a transfer in the machine metrics and the fabric's
// per-medium counters. It is safe for concurrent callers: the Metrics
// object serializes internally and the fabric counters are atomic.
func (f *Fabric) record(m Meter, src, dst cluster.CoreID, n int64) {
	if mutate.Enabled(mutate.SwapFlow) {
		src, dst = dst, src // seeded defect: flow endpoints reversed
	}
	md := f.medium(src, dst)
	f.stats[md].bytes.Add(n)
	f.stats[md].ops.Add(1)
	obsBytes[md].Add(n)
	obsOps[md].Inc()
	obsTransferBytes.Observe(n)
	f.machine.Metrics().Record(m.Phase, m.Class, md, m.DstApp,
		f.machine.NodeOf(src), f.machine.NodeOf(dst), n)
}

// MediumBytes returns the total bytes moved through a medium since the
// fabric was created.
func (f *Fabric) MediumBytes(md cluster.Medium) int64 { return f.stats[md].bytes.Load() }

// MediumOps returns the number of transfers performed through a medium.
func (f *Fabric) MediumOps(md cluster.Medium) int64 { return f.stats[md].ops.Load() }

// Endpoint is the per-core attachment point to the fabric.
type Endpoint struct {
	core   cluster.CoreID
	fabric *Fabric

	mu        sync.Mutex
	inbox     []Message
	inboxCond *sync.Cond
	closed    bool

	exportMu     sync.Mutex
	exports      map[BufKey]any
	exportCond   *sync.Cond
	exportClosed bool

	handlers map[string]Handler // guarded by handlerMu
}

// Core returns the core this endpoint belongs to.
func (ep *Endpoint) Core() cluster.CoreID { return ep.core }

// Send delivers a tagged message to dst asynchronously. The payload is
// owned by the receiver after the call; callers must not modify it.
//
// Messaging never traverses a backend: every task of a run executes in the
// process that holds the fabric's endpoints, so a mailbox lives where its
// tasks run and a message is metered and queued here, under every backend.
func (ep *Endpoint) Send(dst cluster.CoreID, tag uint64, payload []byte, m Meter) error {
	f := ep.fabric
	if int(dst) < 0 || int(dst) >= len(f.endpoints) {
		return fmt.Errorf("transport: destination core %d out of range", dst)
	}
	if err := f.inject(FaultSend, int(f.medium(ep.core, dst)), ep.core, dst); err != nil {
		return err
	}
	f.record(m, ep.core, dst, int64(len(payload)))
	de := f.endpoints[int(dst)]
	de.mu.Lock()
	defer de.mu.Unlock()
	if de.closed {
		return fmt.Errorf("transport: sending to endpoint %d: %w", dst, ErrEndpointClosed)
	}
	de.inbox = append(de.inbox, Message{Src: ep.core, Tag: tag, Payload: payload})
	de.inboxCond.Broadcast()
	return nil
}

// Recv blocks until a message matching (src, tag) is available in this
// endpoint's inbox and returns it. Pass AnySource to match any sender.
// Messages from the same sender with the same tag are delivered in send
// order.
func (ep *Endpoint) Recv(src cluster.CoreID, tag uint64) (Message, error) {
	// A receive from AnySource has no determinable medium; it only matches
	// medium-agnostic fault rules.
	md := anyMedium
	if src != AnySource {
		md = int(ep.fabric.medium(src, ep.core))
	}
	if err := ep.fabric.inject(FaultRecv, md, src, ep.core); err != nil {
		return Message{}, err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		for i, msg := range ep.inbox {
			if (src == AnySource || msg.Src == src) && msg.Tag == tag {
				ep.inbox = append(ep.inbox[:i], ep.inbox[i+1:]...)
				return msg, nil
			}
		}
		if ep.closed {
			return Message{}, fmt.Errorf("transport: receiving on endpoint %d: %w", ep.core, ErrEndpointClosed)
		}
		ep.inboxCond.Wait()
	}
}

// Close wakes all blocked receivers of this endpoint with an error. It is
// used to tear down a simulation.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	ep.closed = true
	ep.inboxCond.Broadcast()
	ep.mu.Unlock()
	ep.exportMu.Lock()
	ep.exportClosed = true
	ep.exportCond.Broadcast()
	ep.exportMu.Unlock()
}

// Expose publishes a one-sided buffer under key. Readers on any core can
// pull from it with ReadMulti. Re-exposing an existing key is an error
// (versions distinguish iterations).
func (ep *Endpoint) Expose(key BufKey, payload any) error {
	return ep.fabric.backend.Expose(ep.core, key, payload)
}

// Unexpose withdraws a published buffer, freeing its slot; withdrawing a
// key that is not published is no error.
func (ep *Endpoint) Unexpose(key BufKey) error {
	return ep.fabric.backend.Unexpose(ep.core, key)
}

// ReadMulti is the one-sided read: a receiver-driven pull of one or more
// exposed sub-regions in one operation, blocking until every buffer is
// published. The owners may sit behind any number of peers: a network
// backend sends each owning node one request frame for its run of specs,
// every request before it reads any answer, and clips every region on the
// owning side. Each spec is metered at spec.Bytes on the executing side and
// matches fault rules individually, so a batch observes the same injected
// faults as the equivalent sequence of single-spec reads; an injected fault
// fails the call as a *SpecError naming its spec. deliver runs once per
// spec, with the spec's index in the call, in spec order within one peer;
// see Backend.ReadMulti for which calls may overlap and SegmentFunc for the
// payload-vs-clipped contract.
func (ep *Endpoint) ReadMulti(specs []ReadSpec, m Meter, deliver SegmentFunc) error {
	if len(specs) == 0 {
		return nil
	}
	for i, spec := range specs {
		if int(spec.Owner) < 0 || int(spec.Owner) >= len(ep.fabric.endpoints) {
			return fmt.Errorf("transport: owner core %d out of range", spec.Owner)
		}
		if err := ep.fabric.inject(FaultRead, int(ep.fabric.medium(spec.Owner, ep.core)), ep.core, spec.Owner); err != nil {
			return &SpecError{Index: i, Err: err}
		}
	}
	return ep.fabric.backend.ReadMulti(ep.core, specs, m, deliver)
}

// Handler processes an RPC request on the serving core and returns a
// response. reqBytes/respBytes returned by Call are metered as control
// traffic.
type Handler func(src cluster.CoreID, request any) (response any, err error)

// handlerRegistry holds RPC services per endpoint.
var handlerMu sync.Mutex

// RegisterHandler installs an RPC handler for the named service on this
// endpoint. It replaces any previous handler with the same name. A handler
// runs on the caller's goroutine (on a serving node, the goroutine of the
// connection the request arrived on), so it may take its own locks but must
// never wait on another task: a handler that blocks holds its caller, and
// Close of the endpoint does not release it.
func (ep *Endpoint) RegisterHandler(service string, h Handler) {
	handlerMu.Lock()
	defer handlerMu.Unlock()
	if ep.handlers == nil {
		ep.handlers = make(map[string]Handler)
	}
	ep.handlers[service] = h
}

// Call performs a synchronous RPC against a service registered on the dst
// core. reqBytes and respBytes are the metered sizes of the request and
// response (control traffic is small but crosses the same fabric).
func (ep *Endpoint) Call(dst cluster.CoreID, service string, request any, m Meter, reqBytes, respBytes int64) (any, error) {
	if int(dst) < 0 || int(dst) >= len(ep.fabric.endpoints) {
		return nil, fmt.Errorf("transport: destination core %d out of range", dst)
	}
	if err := ep.fabric.inject(FaultCall, int(ep.fabric.medium(ep.core, dst)), ep.core, dst); err != nil {
		return nil, err
	}
	return ep.fabric.backend.Call(ep.core, dst, service, request, m, reqBytes, respBytes)
}
