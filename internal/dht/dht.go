// Package dht implements the CoDS data lookup service: a distributed hash
// table that keeps track of where coupled data is stored (paper Section
// IV-A, Figure 6).
//
// The application's n-dimensional Cartesian domain is linearized with a
// Hilbert space-filling curve; the resulting 1-D index space is divided
// into contiguous intervals, one per compute node. The first core of each
// node acts as that node's DHT core and maintains a location table mapping
// (variable, version, region) to the core storing the data. Clients
// translate geometric descriptors into index spans, route inserts and
// queries to the DHT cores responsible for the overlapping intervals, and
// merge the answers.
package dht

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
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

// dumpReq asks a DHT core for every entry it holds (the observe step of a
// re-split); clearReq empties its table (a member leaving the set).
type dumpReq struct{}

type dumpResp struct{ Entries []Entry }

type clearReq struct{}

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

// routing is one immutable interval assignment of the linearized index
// space: the alive member nodes, sorted ascending, split the curve's
// Total() indices into contiguous intervals, the remainder spread over
// the first rem members. A topology change never mutates a routing — the
// reconcile loop builds a new one and swaps the pointer, so a concurrent
// fan-out sees either the old assignment or the new one, never a blend.
type routing struct {
	alive []int
	chunk uint64
	rem   uint64
}

func newRouting(alive []int, total uint64) *routing {
	sorted := append([]int(nil), alive...)
	sort.Ints(sorted)
	n := uint64(len(sorted))
	return &routing{alive: sorted, chunk: total / n, rem: total % n}
}

// interval returns the index interval [lo, hi) of the i-th member.
func (r *routing) interval(i int) (uint64, uint64) {
	ui := uint64(i)
	lo := ui*r.chunk + minU64(ui, r.rem)
	hi := lo + r.chunk
	if ui < r.rem {
		hi++
	}
	return lo, hi
}

// memberOfIndex returns the position into alive of the member whose
// interval contains idx.
func (r *routing) memberOfIndex(idx uint64) int {
	big := r.chunk + 1
	if idx < r.rem*big {
		return int(idx / big)
	}
	if r.chunk == 0 {
		return int(r.rem) // degenerate: more members than indices
	}
	return int(r.rem + (idx-r.rem*big)/r.chunk)
}

func (r *routing) nodeOfIndex(idx uint64) int { return r.alive[r.memberOfIndex(idx)] }

// nodesForRegion returns the sorted set of member nodes responsible for
// any part of the region's index spans under this assignment.
func (r *routing) nodesForRegion(curve sfc.Linearizer, b geometry.BBox) []int {
	seen := map[int]bool{}
	for _, span := range curve.Spans(b) {
		first := r.memberOfIndex(span.Start)
		last := r.memberOfIndex(span.End - 1)
		for i := first; i <= last; i++ {
			seen[r.alive[i]] = true
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Service is the machine-wide lookup service. One DHT core per member node
// serves the interval of the linearized index space assigned to it by the
// current routing.
type Service struct {
	fabric *transport.Fabric
	curve  sfc.Linearizer
	tables []*table // per node

	// route is the current interval assignment; prevRoute keeps the one
	// it replaced (consulted only by the StaleRouteAfterResplit seeded
	// defect, which pins the query fan-out to the pre-migration owners).
	route     atomic.Pointer[routing]
	prevRoute atomic.Pointer[routing]

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
	s := &Service{
		fabric: f,
		curve:  curve,
		tables: make([]*table, m.NumNodes()),
	}
	all := make([]int, m.NumNodes())
	for i := range all {
		all[i] = i
	}
	s.route.Store(newRouting(all, curve.Total()))
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

// Members returns the node ids of the current member set, ascending.
func (s *Service) Members() []int {
	return append([]int(nil), s.route.Load().alive...)
}

// intervalOf returns the index interval [lo, hi) owned by a node under the
// current routing ((0, 0) when the node is not a member).
func (s *Service) intervalOf(node int) (uint64, uint64) {
	r := s.route.Load()
	for i, n := range r.alive {
		if n == node {
			return r.interval(i)
		}
	}
	return 0, 0
}

// nodeOfIndex returns the node whose interval contains idx.
func (s *Service) nodeOfIndex(idx uint64) int {
	return s.route.Load().nodeOfIndex(idx)
}

// nodesForRegion returns the sorted set of nodes responsible for any part
// of the region's index spans under the current routing.
func (s *Service) nodesForRegion(b geometry.BBox) []int {
	return s.route.Load().nodesForRegion(s.curve, b)
}

// queryRouting is the assignment the query fan-out consults. The seeded
// StaleRouteAfterResplit defect pins it to the routing that predates the
// last re-split, so lookups go to the pre-migration interval owners —
// including departed members whose tables were handed off and cleared.
func (s *Service) queryRouting() *routing {
	if mutate.Enabled(mutate.StaleRouteAfterResplit) {
		if old := s.prevRoute.Load(); old != nil {
			return old
		}
	}
	return s.route.Load()
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
// table lock exclusively; queries and dumps only read-lock it, so
// concurrent lookups proceed in parallel. A query scans the entries of its
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
	case dumpReq:
		obsTableReads.Inc()
		t.mu.RLock()
		defer t.mu.RUnlock()
		var out []Entry
		for _, es := range t.entries {
			out = append(out, es...)
		}
		return dumpResp{Entries: out}, nil
	case clearReq:
		obsTableWrites.Inc()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.entries = make(map[tableKey][]Entry)
		return nil, nil
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

// Query returns the deduplicated location entries overlapping the region
// for a variable version, gathered from all responsible DHT cores.
func (cl *Client) Query(phase string, app int, v string, version int, region geometry.BBox) ([]Entry, error) {
	if region.Empty() {
		return nil, fmt.Errorf("dht: querying empty region for %q", v)
	}
	req := queryReq{Var: v, Version: version, Region: region}
	reqSize := int64(len(v)) + 8 + int64(16*region.Dim())
	nodes := cl.svc.queryRouting().nodesForRegion(cl.svc.curve, region)
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
		resp, err := cl.call(nodes[0], req, cl.meter(phase, app), reqSize, 8,
			rpcSeed(cl.ep.Core(), nodes[0], 3))
		if err != nil {
			errs[0] = err
		} else {
			results[0] = resp.(queryResp).Entries
		}
	} else {
		var wg sync.WaitGroup
		for i, node := range nodes {
			wg.Add(1)
			go func(i, node int) {
				defer wg.Done()
				resp, err := cl.call(node, req, cl.meter(phase, app), reqSize, 8,
					rpcSeed(cl.ep.Core(), node, 3))
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = resp.(queryResp).Entries
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

// Resplit converges the location tables onto a new member set — the
// migrate half of the membership reconcile loop's observe → diff →
// converge step. Every surviving entry is re-registered with the members
// responsible for its region under the new interval assignment (inserts
// are idempotent, so overlap with the old assignment is harmless),
// departed members have their tables cleared, and surviving members drop
// the entries that moved away from them. Entries held only by an
// unreachable departed member (a crash, not a graceful departure) cannot
// be observed here — the caller's staged-block ledger re-registers them.
// Returns the number of entry handoffs (re-registrations) performed.
//
// The routing swap happens between the re-registration and the pruning,
// so a concurrent query sees either the old assignment with the old
// tables intact or the new assignment with the entries already in place.
func (cl *Client) Resplit(phase string, app int, alive []int) (int, error) {
	s := cl.svc
	if len(alive) == 0 {
		return 0, fmt.Errorf("dht: resplit to an empty member set")
	}
	for _, n := range alive {
		if n < 0 || n >= s.fabric.Machine().NumNodes() {
			return 0, fmt.Errorf("dht: resplit member %d out of range", n)
		}
	}
	old := s.route.Load()
	next := newRouting(alive, s.curve.Total())
	aliveSet := make(map[int]bool, len(next.alive))
	for _, n := range next.alive {
		aliveSet[n] = true
	}
	// Observe: dump every old member's table. A departed member that is
	// already unreachable is skipped — its records are lost with it.
	type dumped struct {
		node    int
		entries []Entry
	}
	var dumps []dumped
	for _, node := range old.alive {
		resp, err := cl.call(node, dumpReq{}, cl.meter(phase, app), 8, 8,
			rpcSeed(cl.ep.Core(), node, 4))
		if err != nil {
			if aliveSet[node] {
				return 0, fmt.Errorf("dht: dumping node %d: %w", node, err)
			}
			continue
		}
		dumps = append(dumps, dumped{node, resp.(dumpResp).Entries})
	}
	// Converge: register each surviving record with its new owners.
	moved := 0
	for _, d := range dumps {
		for _, e := range d.entries {
			for _, node := range next.nodesForRegion(s.curve, e.Region) {
				if node == d.node {
					continue
				}
				if _, err := cl.call(node, insertReq{Entry: e},
					cl.meter(phase, app), entrySize(e), 8, rpcSeed(cl.ep.Core(), node, 1)); err != nil {
					return moved, fmt.Errorf("dht: handing off to node %d: %w", node, err)
				}
				moved++
			}
		}
	}
	// Swap the assignment, keeping the old one for the seeded
	// stale-route defect to consult.
	s.prevRoute.Store(old)
	s.route.Store(next)
	// Prune: departed members drop everything (best effort — the process
	// may already be gone), survivors drop what moved away from them.
	for _, d := range dumps {
		if !aliveSet[d.node] {
			_, _ = cl.call(d.node, clearReq{}, cl.meter(phase, app), 8, 8,
				rpcSeed(cl.ep.Core(), d.node, 5))
			continue
		}
		for _, e := range d.entries {
			still := false
			for _, node := range next.nodesForRegion(s.curve, e.Region) {
				if node == d.node {
					still = true
					break
				}
			}
			if still {
				continue
			}
			if _, err := cl.call(d.node, removeReq{Entry: e},
				cl.meter(phase, app), entrySize(e), 8, rpcSeed(cl.ep.Core(), d.node, 2)); err != nil {
				return moved, fmt.Errorf("dht: pruning node %d: %w", d.node, err)
			}
		}
	}
	return moved, nil
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

// Clear removes all entries from every location table (between workflow
// stages of independent experiments).
func (s *Service) Clear() {
	for _, t := range s.tables {
		t.mu.Lock()
		t.entries = make(map[tableKey][]Entry)
		t.mu.Unlock()
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
