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
	"encoding/binary"
	"fmt"
	"math"
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
	obsServeNs     = obs.H("dht.serve_ns", obs.DefaultLatencyBounds())
	obsQueryOps    = obs.C("dht.query.ops")
	obsQueryFanout = obs.C("dht.query.fanout_calls")
	obsQueryTables = obs.C("dht.query.tables")
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

// queryReq asks a DHT core for the entries of a variable version that
// overlap Region. A core whose table of the version holds at most Bound
// entries answers with all of them instead (Locations.Answer), so Bound 0
// is a plain region query.
type queryReq struct {
	Var     string
	Version int
	Region  geometry.BBox
	Bound   int
}

type queryResp struct{ Entries []Entry }

// tableKey names one variable version in a location table.
type tableKey struct {
	v       string
	version int
}

// Locations holds the location entries of one variable version and, packed
// beside them in one flat slice, their corners: entry i's Min then Max at
// corners[i*2*dim:]. A query tests overlap on the packed corners alone and
// reads an Entry only for a hit. An index from (owner, corners) to position
// makes the duplicate check of an insert, and a remove, O(1): a removed
// entry leaves a hole, corners no box can overlap, until holes are half the
// slice and one pass closes them and rebuilds the index. So the entries keep
// their insertion order, and every write keeps entries, corners and index in
// step. Every entry of one Locations has the same rank.
//
// It has two homes: a DHT core's table holds one per variable version, and
// a cods handle one per variable version its lookups located. The zero
// value is empty; it is not safe for concurrent use.
type Locations struct {
	entries []Entry // a hole's is the zero Entry
	corners []int
	index   map[string]int
	holes   int
}

// locKey spells owner and region's corners as an index key.
func locKey(dst []byte, owner cluster.CoreID, region geometry.BBox) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(owner))
	for _, c := range region.Min {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
	}
	for _, c := range region.Max {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
	}
	return dst
}

// Len returns how many entries l holds.
func (l *Locations) Len() int { return len(l.entries) - l.holes }

// Insert adds e unless l holds an entry of the same owner and region, and
// reports whether it did.
func (l *Locations) Insert(e Entry) bool {
	var buf [80]byte
	k := locKey(buf[:0], e.Owner, e.Region)
	if _, ok := l.index[string(k)]; ok {
		return false
	}
	if l.index == nil {
		l.index = make(map[string]int)
	}
	l.index[string(k)] = len(l.entries)
	l.entries = append(l.entries, e)
	l.corners = append(append(l.corners, e.Region.Min...), e.Region.Max...)
	return true
}

// Remove withdraws the entry of owner with exactly region's corners, and
// reports whether l held one.
func (l *Locations) Remove(owner cluster.CoreID, region geometry.BBox) bool {
	var buf [80]byte
	k := locKey(buf[:0], owner, region)
	i, ok := l.index[string(k)]
	if !ok {
		return false
	}
	delete(l.index, string(k))
	dim := region.Dim()
	l.entries[i] = Entry{}
	c := l.corners[i*2*dim : (i+1)*2*dim]
	for d := 0; d < dim; d++ {
		c[d], c[dim+d] = math.MaxInt, math.MinInt
	}
	if l.holes++; 2*l.holes > len(l.entries) {
		l.compact(dim)
	}
	return true
}

// compact closes l's holes in order and re-points the index.
func (l *Locations) compact(dim int) {
	w := 2 * dim
	n := 0
	var buf [80]byte
	for i, e := range l.entries {
		if e.Region.Min == nil {
			continue
		}
		l.entries[n] = e
		copy(l.corners[n*w:], l.corners[i*w:i*w+w])
		l.index[string(locKey(buf[:0], e.Owner, e.Region))] = n
		n++
	}
	clear(l.entries[n:])
	l.entries, l.corners, l.holes = l.entries[:n], l.corners[:n*w], 0
}

// Overlapping returns the entries whose regions overlap q, in insertion
// order; a nil l holds none. q must be non-empty and of the entries' rank,
// and so two boxes overlap exactly when, on every axis, each lower corner
// lies below the other's upper corner. No box overlaps a hole.
func (l *Locations) Overlapping(q geometry.BBox) []Entry {
	if l == nil {
		return nil
	}
	dim := q.Dim()
	var out []Entry
next:
	for i, c := 0, l.corners; len(c) > 0; i, c = i+1, c[2*dim:] {
		for d := 0; d < dim; d++ {
			if c[d] >= q.Max[d] || q.Min[d] >= c[dim+d] {
				continue next
			}
		}
		out = append(out, l.entries[i])
	}
	return out
}

// Answer is a DHT core's answer to a query of q bounded by bound (queryReq):
// every entry, in insertion order, when l holds at most bound of them, else
// Overlapping(q). A nil l holds none.
func (l *Locations) Answer(q geometry.BBox, bound int) []Entry {
	if l == nil || l.Len() > bound || l.Len() == 0 {
		return l.Overlapping(q)
	}
	out := make([]Entry, 0, l.Len())
	for _, e := range l.entries {
		if e.Region.Min != nil {
			out = append(out, e)
		}
	}
	return out
}

// table is one DHT core's location table. Writes lock it exclusively;
// queries share the read lock.
type table struct {
	mu      sync.RWMutex
	buckets map[tableKey]*Locations
}

func newTable() *table { return &table{buckets: make(map[tableKey]*Locations)} }

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

// SetRetryPolicy installs the retry policy for control RPCs: an insert,
// remove or query fan-out call whose error its transport marked transient
// is re-attempted with backoff, and a call that gives up returns a
// terminal error. The zero policy disables retrying (the default).
func (s *Service) SetRetryPolicy(p retry.Policy) { s.retryPol.Store(&p) }

// retryPolicy returns the installed policy (zero when none).
func (s *Service) retryPolicy() retry.Policy {
	if p := s.retryPol.Load(); p != nil {
		return *p
	}
	return retry.Policy{}
}

// call performs one control RPC under the service's retry policy.
func (cl *Client) call(node int, req any, m transport.Meter, reqBytes, respBytes int64, seed uint64) (resp any, err error) {
	attempts, err := retry.Do(cl.svc.retryPolicy(), seed,
		func(d time.Duration) { obsBackoffNs.Observe(d.Nanoseconds()) },
		func(int) (err error) {
			resp, err = cl.ep.Call(cl.svc.DHTCore(node), serviceName, req, m, reqBytes, respBytes)
			return err
		})
	if attempts > 1 {
		obsRetries.Add(int64(attempts - 1))
		if err == nil {
			obsRecoveries.Inc()
		}
	}
	return resp, err
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

// serve processes one RPC on the DHT core of node. It runs on the caller's
// goroutine (transport.Endpoint.RegisterHandler) and waits only for the
// table lock: writes take it exclusively, queries share it, so concurrent
// lookups proceed in parallel. A query scans the packed corners of its
// variable version, two comparisons per dimension, or copies the whole table
// when its bound allows, and allocates only the answer; with observability
// on, dht.serve_ns times that table work.
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
		b := t.buckets[k]
		if b == nil {
			b = &Locations{}
			t.buckets[k] = b
		}
		b.Insert(r.Entry) // a re-insert is idempotent
		return nil, nil
	case removeReq:
		if err := s.checkRegion(r.Entry.Region); err != nil {
			return nil, err
		}
		obsTableWrites.Inc()
		t.mu.Lock()
		defer t.mu.Unlock()
		k := tableKey{r.Entry.Var, r.Entry.Version}
		b := t.buckets[k]
		if b == nil {
			return nil, nil
		}
		b.Remove(r.Entry.Owner, r.Entry.Region)
		if b.Len() == 0 {
			delete(t.buckets, k)
		}
		return nil, nil
	case queryReq:
		if err := s.checkRegion(r.Region); err != nil {
			return nil, err
		}
		if r.Bound < 0 {
			return nil, fmt.Errorf("dht: query bound %d is negative", r.Bound)
		}
		obsTableReads.Inc()
		var start time.Time
		if obs.Enabled() {
			start = time.Now()
		}
		t.mu.RLock()
		out := t.buckets[tableKey{r.Var, r.Version}].Answer(r.Region, r.Bound)
		t.mu.RUnlock()
		if obs.Enabled() {
			obsServeNs.Observe(time.Since(start).Nanoseconds())
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
	return cl.query(phase, app, queryReq{Var: v, Version: version, Region: region}, 0)
}

// Tables is Query for a caller that keeps what it is told, such as a cods
// handle's located table: each DHT core the region reaches answers with its
// whole table of the version when that holds at most room/n entries, n the
// cores asked, and with the entries overlapping the region otherwise. So the
// answer, deduplicated like Query's, holds at most room entries more than
// those overlapping the region.
func (cl *Client) Tables(phase string, app int, v string, version int, region geometry.BBox, room int) ([]Entry, error) {
	obsQueryTables.Inc()
	return cl.query(phase, app, queryReq{Var: v, Version: version, Region: region}, max(room, 0))
}

// query fans req out to the DHT cores req.Region reaches, room shared
// evenly among them as each one's bound, and merges the answers.
func (cl *Client) query(phase string, app int, req queryReq, room int) ([]Entry, error) {
	if req.Region.Empty() {
		return nil, fmt.Errorf("dht: querying empty region for %q", req.Var)
	}
	nodes := cl.svc.nodesForRegion(req.Region)
	if len(nodes) > 0 {
		req.Bound = min(room/len(nodes), math.MaxInt32) // the wire carries an i32
	}
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
	// DHT intervals pays one round trip instead of len(nodes). The first
	// node's lookup runs on this goroutine, one more goroutine each asks the
	// others. Results are gathered per node index, keeping the merge
	// deterministic.
	results := make([][]Entry, len(nodes))
	errs := make([]error, len(nodes))
	switch len(nodes) {
	case 0:
	case 1:
		results[0], errs[0] = cl.queryNode(nodes[0], req, phase, app)
	default:
		var wg sync.WaitGroup
		for i := 1; i < len(nodes); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = cl.queryNode(nodes[i], req, phase, app)
			}(i)
		}
		results[0], errs[0] = cl.queryNode(nodes[0], req, phase, app)
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
	for _, b := range t.buckets {
		n += b.Len()
	}
	return n
}
