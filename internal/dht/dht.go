// Package dht implements the CoDS data lookup service: a distributed hash
// table that keeps track of where coupled data is stored (paper Section
// IV-A, Figure 6).
//
// The application's n-dimensional Cartesian domain is linearized with a
// Hilbert space-filling curve; the resulting 1-D index space is divided
// into contiguous intervals, one per compute node, once: a lost node is
// replaced in its slot, so the assignment never changes. The first core of
// each node acts as that node's DHT core and maintains a location table
// mapping (variable, version, region) to the core storing the data. Clients
// translate geometric descriptors into index spans, route inserts and
// queries to the DHT cores responsible for the overlapping intervals, and
// merge the answers.
package dht

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

// Registry instruments for the lookup service.
var (
	obsQueryNs     = obs.H("dht.query_ns", obs.DefaultLatencyBounds())
	obsQueryOps    = obs.C("dht.query.ops")
	obsQueryFanout = obs.C("dht.query.fanout_calls")
	obsInsertOps   = obs.C("dht.insert.ops")
	obsRemoveOps   = obs.C("dht.remove.ops")
	obsTableReads  = obs.C("dht.table.reads")
	obsTableWrites = obs.C("dht.table.writes")
	obsRetries     = obs.C("dht.retry.attempts")
	obsRecoveries  = obs.C("dht.retry.recoveries")
	obsBackoffNs   = obs.H("dht.retry.backoff_ns", obs.DefaultLatencyBounds())
)

// Entry is one location record: data for Region of variable Var at Version
// is stored in the memory of core Owner.
type Entry struct {
	Var     string
	Version int
	Region  geometry.BBox
	Owner   cluster.CoreID
}

// entrySize approximates the wire size of an Entry for control-traffic
// metering: name, version, owner and two corners.
func entrySize(e Entry) int64 {
	return int64(len(e.Var)) + 8 + 8 + int64(16*e.Region.Dim())
}

// serviceName is the RPC service identifier registered on DHT cores.
const serviceName = "cods.dht"

// request types handled by the DHT core.
type insertReq struct{ Entry Entry }

type removeReq struct{ Entry Entry }

type queryReq struct {
	Var     string
	Version int
	Region  geometry.BBox
}

type queryResp struct{ Entries []Entry }

// tableKey names one variable version in a location table.
type tableKey struct {
	v       string
	version int
}

// table is one DHT core's location table. Writes lock it exclusively;
// queries share the read lock.
type table struct {
	mu      sync.RWMutex
	entries map[tableKey][]Entry
}

func newTable() *table { return &table{entries: make(map[tableKey][]Entry)} }

// Service is the machine-wide lookup service. One DHT core per node serves
// one contiguous interval of the linearized index space.
type Service struct {
	fabric *transport.Fabric
	curve  sfc.Linearizer
	tables []*table // per node

	// cuts is the interval assignment, fixed for the life of the service:
	// node n owns [cuts[n-1], cuts[n]), the first node from 0, the last up
	// to the curve's Total(). The indices are split over the nodes in node
	// order, the remainder spread over the first nodes. A lost node is
	// replaced in its slot (DESIGN §5h), so who owns an index never changes
	// and nothing here needs a lock.
	cuts []uint64

	// retryPol bounds the retrying of control RPCs against DHT cores
	// (nil = single attempt). Stored atomically so the policy can be
	// installed while clients are live.
	retryPol atomic.Pointer[retry.Policy]
}

// NewService creates the lookup service for a fabric and registers the DHT
// RPC handler on the first core of every node. curve must cover the
// workflow's coupled data domain.
func NewService(f *transport.Fabric, curve sfc.Linearizer) *Service {
	m := f.Machine()
	n := uint64(m.NumNodes())
	chunk, rem := curve.Total()/n, curve.Total()%n
	s := &Service{
		fabric: f,
		curve:  curve,
		tables: make([]*table, n),
		cuts:   make([]uint64, n-1),
	}
	for node := uint64(1); node < n; node++ {
		s.cuts[node-1] = node*chunk + min(node, rem)
	}
	for node := 0; node < m.NumNodes(); node++ {
		s.tables[node] = newTable()
		core := m.CoreOn(cluster.NodeID(node), 0)
		node := node
		f.Endpoint(core).RegisterHandler(serviceName, func(src cluster.CoreID, req any) (any, error) {
			return s.serve(node, req)
		})
	}
	return s
}

// Curve returns the linearizer the service uses.
func (s *Service) Curve() sfc.Linearizer { return s.curve }

// SetRetryPolicy installs the retry policy for control RPCs: inserts,
// removes and query fan-out calls that fail transiently are re-attempted
// with backoff. The zero policy disables retrying (the default).
func (s *Service) SetRetryPolicy(p retry.Policy) { s.retryPol.Store(&p) }

// retryPolicy returns the installed policy (zero when none).
func (s *Service) retryPolicy() retry.Policy {
	if p := s.retryPol.Load(); p != nil {
		return *p
	}
	return retry.Policy{}
}

// retryableRPC classifies control-RPC failures: a closed DHT core is
// terminal, everything else (injected faults in particular) is transient.
func retryableRPC(err error) bool {
	return !errors.Is(err, transport.ErrEndpointClosed)
}

// call performs one control RPC under the service's retry policy.
func (cl *Client) call(node int, req any, m transport.Meter, reqBytes, respBytes int64, seed uint64) (any, error) {
	pol := cl.svc.retryPolicy()
	attempts, resp, err := doCall(pol, seed, func() (any, error) {
		return cl.ep.Call(cl.svc.DHTCore(node), serviceName, req, m, reqBytes, respBytes)
	})
	if attempts > 1 {
		obsRetries.Add(int64(attempts - 1))
		if err == nil {
			obsRecoveries.Inc()
		}
	}
	return resp, err
}

// doCall adapts retry.Do to an operation with a result.
func doCall(pol retry.Policy, seed uint64, op func() (any, error)) (int, any, error) {
	var resp any
	attempts, err := retry.Do(pol, seed, retryableRPC,
		func(d time.Duration) { obsBackoffNs.Observe(d.Nanoseconds()) },
		func(int) error {
			var cerr error
			resp, cerr = op()
			return cerr
		})
	if err != nil {
		return attempts, nil, err
	}
	return attempts, resp, nil
}

// intervalOf returns the index interval [lo, hi) owned by a node.
func (s *Service) intervalOf(node int) (uint64, uint64) {
	lo, hi := uint64(0), s.curve.Total()
	if node > 0 {
		lo = s.cuts[node-1]
	}
	if node < len(s.cuts) {
		hi = s.cuts[node]
	}
	return lo, hi
}

// nodeOfIndex returns the node whose interval contains idx: the number of
// cuts at or below it (an empty interval has no index to claim).
func (s *Service) nodeOfIndex(idx uint64) int {
	n, _ := slices.BinarySearch(s.cuts, idx+1)
	return n
}

// nodesForRegion returns the sorted set of nodes responsible for any part
// of the region's index spans. The curve's cover of the region meets the
// same intervals as its exact spans at a fraction of the walk; its spans
// are sorted, so the nodes they reach come out in order.
func (s *Service) nodesForRegion(b geometry.BBox) []int {
	out := make([]int, 0, len(s.tables))
	for _, span := range s.curve.Cover(b, s.cuts) {
		n := s.nodeOfIndex(span.Start)
		if len(out) > 0 {
			n = max(n, out[len(out)-1]+1)
		}
		for last := s.nodeOfIndex(span.End - 1); n <= last; n++ {
			out = append(out, n)
		}
	}
	return out
}

// DHTCore returns the core acting as the DHT core of a node.
func (s *Service) DHTCore(node int) cluster.CoreID {
	return s.fabric.Machine().CoreOn(cluster.NodeID(node), 0)
}

// checkRegion refuses a region no entry of a core's table can hold or match:
// empty, or of another rank than the curve. Requests arrive off a socket;
// the scans in serve rely on this to compare boxes of one rank only.
func (s *Service) checkRegion(b geometry.BBox) error {
	if b.Dim() != s.curve.Dim() || b.Empty() {
		return fmt.Errorf("dht: region %v is empty or not of the curve's rank %d", b, s.curve.Dim())
	}
	return nil
}

// serve processes one RPC on the DHT core of node. Writes take the
// table lock exclusively; queries only read-lock it, so concurrent
// lookups proceed in parallel. A query scans the entries of its
// variable version, one corner comparison each, and allocates only the answer.
func (s *Service) serve(node int, req any) (any, error) {
	t := s.tables[node]
	switch r := req.(type) {
	case insertReq:
		if err := s.checkRegion(r.Entry.Region); err != nil {
			return nil, err
		}
		obsTableWrites.Inc()
		t.mu.Lock()
		defer t.mu.Unlock()
		k := tableKey{r.Entry.Var, r.Entry.Version}
		for _, e := range t.entries[k] {
			if e.Owner == r.Entry.Owner && e.Region.Equal(r.Entry.Region) {
				return nil, nil // idempotent re-insert
			}
		}
		t.entries[k] = append(t.entries[k], r.Entry)
		return nil, nil
	case removeReq:
		if err := s.checkRegion(r.Entry.Region); err != nil {
			return nil, err
		}
		obsTableWrites.Inc()
		t.mu.Lock()
		defer t.mu.Unlock()
		k := tableKey{r.Entry.Var, r.Entry.Version}
		entries := t.entries[k]
		for i, e := range entries {
			if e.Owner == r.Entry.Owner && e.Region.Equal(r.Entry.Region) {
				t.entries[k] = append(entries[:i], entries[i+1:]...)
				break
			}
		}
		if len(t.entries[k]) == 0 {
			delete(t.entries, k)
		}
		return nil, nil
	case queryReq:
		if err := s.checkRegion(r.Region); err != nil {
			return nil, err
		}
		obsTableReads.Inc()
		t.mu.RLock()
		defer t.mu.RUnlock()
		var out []Entry
		for _, e := range t.entries[tableKey{r.Var, r.Version}] {
			if e.Region.Overlaps(r.Region) {
				out = append(out, e)
			}
		}
		return queryResp{Entries: out}, nil
	default:
		return nil, fmt.Errorf("dht: unknown request type %T", req)
	}
}

// Client is a per-core handle used by execution clients to talk to the
// lookup service.
type Client struct {
	svc  *Service
	ep   *transport.Endpoint
	span uint64
}

// ClientAt returns a lookup client bound to the endpoint of core c.
func (s *Service) ClientAt(c cluster.CoreID) *Client {
	return &Client{svc: s, ep: s.fabric.Endpoint(c)}
}

// WithSpan returns a copy of the client whose control RPCs carry the
// given span id (obs.SpanID) as wire trace context, so a remote DHT
// core's handler spans parent under the caller's span. 0 clears it.
func (cl *Client) WithSpan(id uint64) *Client {
	out := *cl
	out.span = id
	return &out
}

// meter classifies DHT control traffic; it is framework bookkeeping
// attached to the requesting application and kept separate from the
// coupled-data payload counters the figures report. The client's span
// context rides along for distributed tracing.
func (cl *Client) meter(phase string, app int) transport.Meter {
	return transport.Meter{Phase: phase, Class: cluster.Control, DstApp: app, Span: cl.span}
}

// Insert registers the location of a stored region with every DHT core
// responsible for its index spans.
func (cl *Client) Insert(phase string, app int, e Entry) error {
	if e.Region.Empty() {
		return fmt.Errorf("dht: inserting empty region for %q", e.Var)
	}
	nodes := cl.svc.nodesForRegion(e.Region)
	if len(nodes) == 0 {
		return fmt.Errorf("dht: region %v outside the curve domain", e.Region)
	}
	obsInsertOps.Inc()
	size := entrySize(e)
	for _, node := range nodes {
		if _, err := cl.call(node, insertReq{Entry: e},
			cl.meter(phase, app), size, 8, rpcSeed(cl.ep.Core(), node, 1)); err != nil {
			return fmt.Errorf("dht: insert on node %d: %w", node, err)
		}
	}
	return nil
}

// rpcSeed derives the deterministic jitter seed of one control RPC.
func rpcSeed(core cluster.CoreID, node, op int) uint64 {
	return uint64(core)<<24 ^ uint64(uint32(node))<<8 ^ uint64(uint32(op))
}

// Remove withdraws a location record from every DHT core responsible for
// its index spans (idempotent: removing an absent entry is a no-op).
func (cl *Client) Remove(phase string, app int, e Entry) error {
	if e.Region.Empty() {
		return fmt.Errorf("dht: removing empty region for %q", e.Var)
	}
	obsRemoveOps.Inc()
	size := entrySize(e)
	for _, node := range cl.svc.nodesForRegion(e.Region) {
		if _, err := cl.call(node, removeReq{Entry: e},
			cl.meter(phase, app), size, 8, rpcSeed(cl.ep.Core(), node, 2)); err != nil {
			return fmt.Errorf("dht: remove on node %d: %w", node, err)
		}
	}
	return nil
}

// queryNode asks one DHT core for its entries. The reply is whatever the
// node sent back — over a network backend any registered message, or none,
// decodes cleanly — so its type is checked, not assumed.
func (cl *Client) queryNode(node int, req queryReq, phase string, app int) ([]Entry, error) {
	reqSize := int64(len(req.Var)) + 8 + int64(16*req.Region.Dim())
	resp, err := cl.call(node, req, cl.meter(phase, app), reqSize, 8, rpcSeed(cl.ep.Core(), node, 3))
	if err != nil {
		return nil, err
	}
	qr, ok := resp.(queryResp)
	if !ok {
		return nil, fmt.Errorf("unexpected reply %T", resp)
	}
	return qr.Entries, nil
}

// Query returns the deduplicated location entries overlapping the region
// for a variable version, gathered from all responsible DHT cores.
func (cl *Client) Query(phase string, app int, v string, version int, region geometry.BBox) ([]Entry, error) {
	if region.Empty() {
		return nil, fmt.Errorf("dht: querying empty region for %q", v)
	}
	req := queryReq{Var: v, Version: version, Region: region}
	nodes := cl.svc.nodesForRegion(region)
	// Meter the whole fan-out — span translation, the concurrent per-node
	// RPCs, and the deduplicating merge — as one query latency sample.
	var queryStart time.Time
	if obs.Enabled() {
		queryStart = time.Now()
		obsQueryOps.Inc()
		obsQueryFanout.Add(int64(len(nodes)))
		defer func() { obsQueryNs.Observe(time.Since(queryStart).Nanoseconds()) }()
	}
	// Fan the per-node lookups out concurrently: a region spanning several
	// DHT intervals pays one round trip instead of len(nodes). Results are
	// gathered per node index, keeping the merge deterministic.
	results := make([][]Entry, len(nodes))
	errs := make([]error, len(nodes))
	if len(nodes) == 1 {
		results[0], errs[0] = cl.queryNode(nodes[0], req, phase, app)
	} else {
		var wg sync.WaitGroup
		for i, node := range nodes {
			wg.Add(1)
			go func(i, node int) {
				defer wg.Done()
				results[i], errs[i] = cl.queryNode(node, req, phase, app)
			}(i, node)
		}
		wg.Wait()
	}
	var all []Entry
	for i := range nodes {
		if errs[i] != nil {
			return nil, fmt.Errorf("dht: query on node %d: %w", nodes[i], errs[i])
		}
		// Response size depends on the answer; metering the body would
		// require a second record; the fixed 8 bytes above covers the
		// header and the body is small control traffic.
		all = append(all, results[i]...)
	}
	// Deduplicate: the same entry is registered on every DHT core its
	// spans touch.
	slices.SortFunc(all, func(a, b Entry) int {
		if a.Owner != b.Owner {
			return cmp.Compare(a.Owner, b.Owner)
		}
		return geometry.Compare(a.Region, b.Region)
	})
	out := all[:0]
	for i, e := range all {
		if i > 0 && e.Owner == all[i-1].Owner && e.Region.Equal(all[i-1].Region) {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// TableSize reports how many entries the DHT core of a node currently
// holds (for tests and diagnostics).
func (s *Service) TableSize(node int) int {
	t := s.tables[node]
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, es := range t.entries {
		n += len(es)
	}
	return n
}

// ResetNode empties the location table of one node's DHT core — what a
// crash of that node's process leaves of it. The table lives in the
// process that serves the node: in a driver that only dials there is
// nothing here to drop.
func (s *Service) ResetNode(node int) {
	t := s.tables[node]
	t.mu.Lock()
	t.entries = make(map[tableKey][]Entry)
	t.mu.Unlock()
}
