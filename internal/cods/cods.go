// Package cods implements the Co-located DataSpaces (CoDS), the virtual
// shared-space abstraction coupled applications use to exchange data
// (paper Sections III and IV-A).
//
// CoDS offers two pairs of one-sided operators mirroring Table I of the
// paper:
//
//   - PutConcurrent / GetConcurrent set up direct producer-to-consumer
//     transfers for concurrently coupled applications. The consumer
//     computes the communication schedule from the producer's declared
//     data decomposition, then pulls each overlapping piece straight out
//     of the producer's exposed memory.
//   - PutSequential / GetSequential stage data through the distributed
//     in-memory storage: the producer stores its blocks locally and
//     registers their locations with the DHT-based lookup service; a
//     consumer launched later queries the lookup service, computes the
//     schedule and pulls the pieces from wherever they are stored.
//
// Both paths are receiver-driven and use HybridDART, so a pull whose
// endpoints share a compute node is a shared-memory transfer and is
// metered as such. A communication schedule is the list of
// transport.ReadSpec that Endpoint.ReadMulti executes, one spec per stored
// block; schedules are cached per client and reused across iterations
// (versions), as coupling patterns repeat in iterative simulations. A
// client also keeps the locations its lookups returned, so a get of a new
// region that they tile needs no lookup.
package cods

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

// Registry instruments for the put/get/pull pipeline. The per-handle
// CacheHits/CacheMisses fields remain the per-client view; these counters
// are the machine-wide aggregate the run report and HTTP endpoint read.
var (
	obsSchedHits      = obs.C("cods.sched.cache.hits")
	obsSchedMisses    = obs.C("cods.sched.cache.misses")
	obsSchedTransfers = obs.C("cods.sched.transfers")
	obsPullOps        = obs.C("cods.pull.ops")
	obsPullTransfers  = obs.C("cods.pull.transfers")
	obsPullBytes      = obs.C("cods.pull.bytes")
	obsPullNs         = obs.H("cods.pull.ns", obs.DefaultLatencyBounds())
	obsPullRetries    = obs.C("cods.pull.retries")
	obsPullRecoveries = obs.C("cods.pull.recoveries")
	obsPullBackoffNs  = obs.H("cods.pull.backoff_ns", obs.DefaultLatencyBounds())
	obsPutRetries     = obs.C("cods.put.retries")
)

// ElemSize is the size of one domain cell in bytes (float64 fields).
const ElemSize = 8

// StoredObject is the payload exposed for one stored block: the block's
// region and its row-major data.
type StoredObject struct {
	Region geometry.BBox
	Data   []float64
}

func init() {
	// Stored blocks cross a network backend in the block wire form below;
	// the serving process rebuilds them through this decoder.
	transport.RegisterBlockDecoder(decodeBlock)
}

// Block wire form, as a serving process receives and keeps it:
//
//	box       the block's region (geometry.AppendBox)
//	cells:    big-endian float64 bits, row-major over the region
//
// The cell section is exactly what ClipRegion emits for the block's own
// region and what copySegment scatters. A put sends the cells as Data holds
// them (AppendBlock), and the receiving backend puts them in this order as
// they land. The serving process keeps the cell section (wireBlock) and
// serves sub-boxes of it as runs of those very bytes, and only
// copySegment, in the process that asked for the cells, decodes them.

// AppendBlock implements transport.BlockPayload: the region header, and
// Data's own bytes (hostCells) as the cells, for a block the wire can carry.
func (o *StoredObject) AppendBlock(dst []byte) ([]byte, []byte, error) {
	dim := o.Region.Dim()
	if dim == 0 || dim > 0xFF {
		return nil, nil, fmt.Errorf("cods: block rank %d outside the wire range 1..255", dim)
	}
	if vol := o.Region.Volume(); int64(len(o.Data)) != vol || vol == 0 {
		return nil, nil, fmt.Errorf("cods: block %v carries %d cells, want %d (and at least one)",
			o.Region, len(o.Data), vol)
	}
	return geometry.AppendBox(dst, o.Region), hostCells(o.Data), nil
}

// decodeBlock strictly decodes the block wire form into a *wireBlock that
// retains wire's cell section: nothing is copied or converted, and nothing
// sized by wire data is allocated.
func decodeBlock(wire []byte) (any, error) {
	region, cells, err := geometry.ReadBox(wire)
	if err != nil {
		return nil, fmt.Errorf("cods: block wire form: %w", err)
	}
	if len(cells)%ElemSize != 0 {
		return nil, fmt.Errorf("cods: block wire form: %d cell bytes is not a whole number of cells", len(cells))
	}
	// The volume is checked against the cells actually present dimension by
	// dimension, so a hostile region cannot overflow the product.
	budget := uint64(len(cells) / ElemSize)
	volume := uint64(1)
	for d := range region.Min {
		size := uint64(region.Max[d]) - uint64(region.Min[d])
		if size > budget/volume {
			return nil, fmt.Errorf("cods: block wire form: region needs more than the %d cells carried", budget)
		}
		volume *= size
	}
	if volume != budget {
		return nil, fmt.Errorf("cods: block wire form: region of %d cells carries %d", volume, budget)
	}
	if mutate.Enabled(mutate.TCPBlockShift) {
		// Seeded defect: the block lands one cell over along its last
		// dimension — right bytes, wrong coordinates.
		dim := region.Dim()
		region.Min[dim-1]++
		region.Max[dim-1]++
	}
	return &wireBlock{Region: region, Cells: cells}, nil
}

// wireBlock is a stored block as a serving process keeps it: its region
// and the cell section of the expose body it arrived in, in the wire's
// cell format. Nothing writes to that body while the block is exposed, nor
// after, until no segment served from it is still being written (the
// tcpnet server recycles it only then), so the runs ClipRows serves may
// alias it.
type wireBlock struct {
	Region geometry.BBox
	Cells  []byte
}

// ClipRows implements transport.RegionClipper: the whole block is one run,
// any other intersection one run per row, and every run is a slice of
// Cells capped at its own end, so nothing is copied or converted. The runs
// end to end are byte for byte StoredObject.ClipRegion of the same sub-box.
func (b *wireBlock) ClipRows(rows [][]byte, sub geometry.BBox) ([][]byte, error) {
	if sub.Dim() != b.Region.Dim() {
		return nil, fmt.Errorf("cods: clip rank %d against stored rank %d", sub.Dim(), b.Region.Dim())
	}
	clip, ok := sub.Intersect(b.Region)
	if !ok {
		return rows, nil
	}
	if clip.Equal(b.Region) {
		return append(rows, b.Cells[:len(b.Cells):len(b.Cells)]), nil
	}
	run := int64(clip.Size(clip.Dim()-1)) * ElemSize
	p := append(make([]int, 0, 4), clip.Min...)
	at := b.Region.Offset(clip.Min) * ElemSize
	for row := 0; ; row++ {
		from := at
		if row > 0 && mutate.Enabled(mutate.TCPClipRowSkew) && from+run < int64(len(b.Cells)) {
			from += ElemSize // seeded defect: every row after the first starts one cell late
		}
		rows = append(rows, b.Cells[from:from+run:from+run])
		step, more := nextRow(p, clip, b.Region)
		if !more {
			return rows, nil
		}
		at += step * ElemSize
	}
}

// ClipRegion appends the cells of sub ∩ Region onto dst as big-endian
// float64 bits, row-major over the intersection: for the whole region the
// cell section a serving process keeps, and for any sub-box what a serving
// process's wireBlock.ClipRows runs spell out. An empty intersection
// appends nothing.
func (o *StoredObject) ClipRegion(dst []byte, sub geometry.BBox) ([]byte, error) {
	if sub.Dim() != o.Region.Dim() {
		return nil, fmt.Errorf("cods: clip rank %d against stored rank %d", sub.Dim(), o.Region.Dim())
	}
	clip, ok := sub.Intersect(o.Region)
	if !ok {
		return dst, nil
	}
	// One growth to the final size: a pooled staging buffer that is too
	// short is replaced once instead of doubling its way up.
	dst = slices.Grow(dst, int(clip.Volume())*ElemSize)
	run := int64(clip.Size(clip.Dim() - 1))
	p := append(make([]int, 0, 4), clip.Min...)
	at := o.Region.Offset(clip.Min)
	for {
		n := len(dst)
		dst = dst[:n+int(run)*ElemSize]
		encodeRow(dst[n:], o.Data[at:at+run])
		step, more := nextRow(p, clip, o.Region)
		if !more {
			return dst, nil
		}
		at += step
	}
}

// copySegment scatters an owner-clipped segment — big-endian float64 cell
// bits, row-major over sub, as ClipRegion produces — into dst (row-major
// over dstBox). sub must lie inside dstBox and the segment carry exactly
// sub's cells: the schedule guarantees every requested sub-box lies inside
// the stored block, so a shorter segment means the wire lost data. The
// checks run once; each row is then one decodeRow at an offset advanced
// by dstBox's strides.
func copySegment(dst []float64, dstBox geometry.BBox, seg []byte, sub geometry.BBox) error {
	if sub.Dim() != dstBox.Dim() || !dstBox.ContainsBox(sub) {
		return fmt.Errorf("cods: segment for %v does not lie inside %v", sub, dstBox)
	}
	if want := sub.Volume() * ElemSize; int64(len(seg)) != want {
		return fmt.Errorf("cods: segment for %v carries %d bytes, want %d", sub, len(seg), want)
	}
	if sub.Empty() {
		return nil
	}
	run := int64(sub.Size(sub.Dim() - 1))
	p := append(make([]int, 0, 4), sub.Min...)
	at := dstBox.Offset(sub.Min)
	for {
		decodeRow(dst[at:at+run], seg[:run*ElemSize])
		seg = seg[run*ElemSize:]
		step, more := nextRow(p, sub, dstBox)
		if !more {
			return nil
		}
		at += step
	}
}

// decodeRow converts one row of wire cells, len(dst)*ElemSize bytes of src,
// into dst. Four cells a step, the lengths checked once per step, so the
// compiler drops every per-cell bounds check.
func decodeRow(dst []float64, src []byte) {
	for len(dst) >= 4 && len(src) >= 4*ElemSize {
		dst[0] = math.Float64frombits(binary.BigEndian.Uint64(src[0:8]))
		dst[1] = math.Float64frombits(binary.BigEndian.Uint64(src[8:16]))
		dst[2] = math.Float64frombits(binary.BigEndian.Uint64(src[16:24]))
		dst[3] = math.Float64frombits(binary.BigEndian.Uint64(src[24:32]))
		dst, src = dst[4:], src[4*ElemSize:]
	}
	for len(dst) > 0 && len(src) >= ElemSize {
		dst[0] = math.Float64frombits(binary.BigEndian.Uint64(src[0:8]))
		dst, src = dst[1:], src[ElemSize:]
	}
}

// encodeRow is decodeRow's mirror: it writes src into dst as wire cells,
// len(src)*ElemSize bytes, four cells a step with the lengths checked once
// per step.
func encodeRow(dst []byte, src []float64) {
	for len(src) >= 4 && len(dst) >= 4*ElemSize {
		binary.BigEndian.PutUint64(dst[0:8], math.Float64bits(src[0]))
		binary.BigEndian.PutUint64(dst[8:16], math.Float64bits(src[1]))
		binary.BigEndian.PutUint64(dst[16:24], math.Float64bits(src[2]))
		binary.BigEndian.PutUint64(dst[24:32], math.Float64bits(src[3]))
		dst, src = dst[4*ElemSize:], src[4:]
	}
	for len(src) > 0 && len(dst) >= ElemSize {
		binary.BigEndian.PutUint64(dst[0:8], math.Float64bits(src[0]))
		dst, src = dst[ElemSize:], src[1:]
	}
}

// nextRow moves the row odometer p (the first cell of the current row of
// sub; its last coordinate never moves) to the next row and returns how
// many cells further along it starts in row-major box, which contains sub;
// more is false once the last row is done.
func nextRow(p []int, sub, box geometry.BBox) (step int64, more bool) {
	stride := int64(box.Size(len(p) - 1))
	for d := len(p) - 2; d >= 0; d-- {
		if p[d]++; p[d] < sub.Max[d] {
			return step + stride, true
		}
		p[d] = sub.Min[d]
		step -= int64(sub.Size(d)-1) * stride
		stride *= int64(box.Size(d))
	}
	return 0, false
}

// Space is the machine-wide CoDS instance.
type Space struct {
	fabric *transport.Fabric
	lookup *dht.Service

	// Schedule invalidation state: varGen[v] is bumped by
	// DiscardSequential of variable v (that variable's cached schedules
	// stale). Handles stamp cached schedules with it and recompute when it
	// moved, so a discard-then-restage at a different owner can never be
	// served from a stale schedule.
	invMu  sync.Mutex
	varGen map[string]uint64

	// tracer optionally receives pull spans; stored atomically so it can
	// be attached while handles are live.
	tracer atomic.Pointer[obs.Tracer]

	// retryPol bounds the retrying of failed transfers (nil = single
	// attempt). Stored atomically so it can be installed while pulls run.
	retryPol atomic.Pointer[retry.Policy]

	// putRecorder, when set, observes the staged-block lifecycle (the
	// membership layer's ledger — the source the reconcile loop re-stages
	// from when an owner crashes without a graceful handoff).
	putRecorder atomic.Pointer[PutRecorder]

	// Streaming coupling state (stream.go): one stream per declared
	// variable, created lazily by DeclareStream.
	streamMu sync.Mutex
	streams  map[string]*stream
}

// PutRecorder observes sequentially staged blocks as they are stored and
// discarded. Implementations must be safe for concurrent use; RecordPut
// may keep data without copying it, since a put hands its slice to the
// space (PutSequential) and nothing writes to it again. app is the
// application of the staging handle — the lookup namespace a re-stage of
// the block must keep.
type PutRecorder interface {
	RecordPut(v string, version int, region geometry.BBox, owner cluster.CoreID, app int, data []float64)
	RecordDiscard(v string, version int, region geometry.BBox, owner cluster.CoreID)
}

// NewSpace builds a CoDS over a fabric for a coupled data domain using the
// default Hilbert linearization. The domain determines the curve's grid.
func NewSpace(f *transport.Fabric, domain geometry.BBox) (*Space, error) {
	return NewSpaceWithCurve(f, domain, sfc.CurveHilbert)
}

// NewSpaceWithCurve builds a CoDS over a fabric with a named linearization
// policy ("hilbert", "morton" or "rowmajor"; empty selects Hilbert). The
// curve governs how the lookup service splits the linearized index space
// into per-node intervals and how regions decompose into index spans.
func NewSpaceWithCurve(f *transport.Fabric, domain geometry.BBox, curveName string) (*Space, error) {
	curve, err := sfc.ForDomain(curveName, domain.Sizes())
	if err != nil {
		return nil, fmt.Errorf("cods: %w", err)
	}
	return &Space{
		fabric: f,
		lookup: dht.NewService(f, curve),
		varGen: make(map[string]uint64),
	}, nil
}

// SetTracer attaches a span tracer: every schedule execution emits a
// "pull:<var>" span (parented under the task span when the runtime wired
// one). nil detaches.
func (sp *Space) SetTracer(tr *obs.Tracer) { sp.tracer.Store(tr) }

// SetRetryPolicy installs the transfer retry policy: a get or sequential
// put whose attempt failed transiently is attempted again with exponential
// backoff up to the policy's attempt budget (Handle.get, PutSequential).
// The same policy governs the lookup service's RPC fan-out. The zero
// policy (the default) disables retrying.
func (sp *Space) SetRetryPolicy(p retry.Policy) {
	sp.retryPol.Store(&p)
	sp.lookup.SetRetryPolicy(p)
}

// RetryPolicy returns the installed transfer retry policy (zero when none
// was set).
func (sp *Space) RetryPolicy() retry.Policy {
	if p := sp.retryPol.Load(); p != nil {
		return *p
	}
	return retry.Policy{}
}

// InvalidateSchedules marks every cached communication schedule of a
// variable stale, forcing the next get to re-query the lookup service.
func (sp *Space) InvalidateSchedules(v string) {
	sp.invMu.Lock()
	sp.varGen[v]++
	sp.invMu.Unlock()
}

// SetPutRecorder installs the staged-block observer (nil uninstalls).
func (sp *Space) SetPutRecorder(r PutRecorder) {
	if r == nil {
		sp.putRecorder.Store(nil)
		return
	}
	sp.putRecorder.Store(&r)
}

// scheduleStamp returns the invalidation stamp (v's generation) a
// schedule for v computed now would carry.
func (sp *Space) scheduleStamp(v string) uint64 {
	sp.invMu.Lock()
	defer sp.invMu.Unlock()
	return sp.varGen[v]
}

// Lookup exposes the data lookup service (used by the client-side task
// mapping to find where coupled data is stored).
func (sp *Space) Lookup() *dht.Service { return sp.lookup }

// Fabric returns the underlying transport fabric.
func (sp *Space) Fabric() *transport.Fabric { return sp.fabric }

// schedEntry is one cached communication schedule, its variable and the
// invalidation stamp it was computed under. A schedule is the read list
// Endpoint.ReadMulti executes: one spec per stored block holding cells of
// the region, ordered by (Owner, Sub), its keys versionless (Version 0)
// because coupling patterns repeat across versions — pull stamps the
// version of the get it serves on a copy.
type schedEntry struct {
	v     string
	sched []transport.ReadSpec
	gen   uint64
}

// maxCachedSchedules bounds a handle's schedule cache; a miss that finds
// it full empties it.
const maxCachedSchedules = 128

// maxLocatedEntries bounds the location entries a handle's located tables
// hold in all; a fill that would pass it empties them. A 512x512 domain
// of 16x16 blocks (seq-lookup-tcp) is 1,024 entries.
const maxLocatedEntries = 4096

// locatedKey names one variable version in a handle's located tables.
type locatedKey struct {
	v       string
	version int
}

// located is what a handle's lookups found of one variable version: every
// entry of every answer that covered its get, and the invalidation stamp
// the first of those lookups was made under.
type located struct {
	gen uint64
	at  dht.Locations
}

// answer is a lookup answer that covered its get: the entries of one
// variable version and the invalidation stamp the lookup was made under.
type answer struct {
	key     locatedKey
	gen     uint64
	entries []dht.Entry
}

// Handle is an execution client's per-core view of the space.
type Handle struct {
	sp    *Space
	core  cluster.CoreID
	app   int
	phase string

	// schedCache caches communication schedules keyed by operator, app,
	// variable and query region; coupling patterns repeat across
	// iterations so the DHT query and schedule computation are paid once
	// (Section IV-A). The phase tag is deliberately not part of the key:
	// it is a metering label that rotates every iteration and schedules do
	// not depend on it. Entries carry their variable's invalidation stamp,
	// and are dropped once DiscardSequential moves it. The ablation
	// benchmarks disable the cache.
	schedCache   map[string]schedEntry
	CacheEnabled bool

	// located keeps, per variable version, the entries the handle's lookups
	// returned, so a get whose region they tile exactly builds its schedule
	// without a lookup (locatedSchedule). It follows the schedule cache: the
	// same stamp, off with it, and bounded (maxLocatedEntries, nLocated in
	// all). It is per handle so that what a handle sends never depends on
	// what other tasks looked up, and when. The latest answer waits in
	// pending until another get could use it, so a handle that reads one
	// region per version, as a workflow task does, indexes nothing.
	located  map[locatedKey]*located
	nLocated int
	pending  answer

	// stats
	CacheHits   int
	CacheMisses int

	// spanParent optionally parents this handle's pull spans (wired by the
	// runtime to the task span).
	spanParent obs.SpanID
}

// HandleAt creates a client handle for the given core, owned by app. phase
// tags all traffic this handle generates.
func (sp *Space) HandleAt(core cluster.CoreID, app int, phase string) *Handle {
	return &Handle{
		sp:           sp,
		core:         core,
		app:          app,
		phase:        phase,
		schedCache:   make(map[string]schedEntry),
		CacheEnabled: true,
	}
}

// SetPhase switches the metering phase tag.
func (h *Handle) SetPhase(phase string) { h.phase = phase }

// SetSpanParent parents this handle's pull spans under an enclosing span
// (the runtime passes its task span).
func (h *Handle) SetSpanParent(id obs.SpanID) { h.spanParent = id }

// Core returns the core this handle is bound to.
func (h *Handle) Core() cluster.CoreID { return h.core }

func (h *Handle) endpoint() *transport.Endpoint { return h.sp.fabric.Endpoint(h.core) }

func (h *Handle) meter() transport.Meter {
	return transport.Meter{Phase: h.phase, Class: cluster.InterApp, DstApp: h.app}
}

// lookupClient returns the handle's DHT client carrying its span context,
// so control RPCs against remote DHT cores trace back to the task span.
func (h *Handle) lookupClient() *dht.Client {
	return h.sp.lookup.ClientAt(h.core).WithSpan(uint64(h.spanParent))
}

// bufKey derives the exposure key for a stored block of a variable.
func bufKey(v string, region geometry.BBox, version int) transport.BufKey {
	return transport.BufKey{Name: v + "|" + region.String(), Version: version}
}

// validatePut checks a put's arguments.
func validatePut(v string, region geometry.BBox, data []float64) error {
	if v == "" {
		return fmt.Errorf("cods: empty variable name")
	}
	if region.Empty() {
		return fmt.Errorf("cods: empty region for %q", v)
	}
	if int64(len(data)) != region.Volume() {
		return fmt.Errorf("cods: %q data length %d != region volume %d", v, len(data), region.Volume())
	}
	return nil
}

// PutConcurrent exposes one block of a variable for direct pulls by a
// concurrently running consumer. The data slice is owned by the space
// afterwards. Consumers locate it through the producer's decomposition, so
// region must be a maximal owned block of the producer's decomposition.
func (h *Handle) PutConcurrent(v string, version int, region geometry.BBox, data []float64) error {
	if err := validatePut(v, region, data); err != nil {
		return err
	}
	return h.endpoint().Expose(bufKey(v, region, version), &StoredObject{Region: region.Clone(), Data: data})
}

// ProducerInfo tells a concurrent consumer how the producer's data is laid
// out: its decomposition, and where each of its ranks runs.
type ProducerInfo struct {
	Decomp *decomp.Decomposition
	CoreOf func(rank int) cluster.CoreID
}

// GetConcurrent retrieves the cells of region for a variable directly from
// the concurrently running producer described by info, blocking until the
// producer has exposed the needed blocks. The result is row-major over
// region.
func (h *Handle) GetConcurrent(info ProducerInfo, v string, version int, region geometry.BBox) ([]float64, error) {
	return h.get("cont", v, version, region, func() ([]transport.ReadSpec, error) {
		return h.concurrentSchedule(info, v, region), nil
	})
}

// concurrentSchedule computes the read list against the producer's
// decomposition: for every producer rank owning part of the region, one
// spec per maximal stored block intersected with the region.
func (h *Handle) concurrentSchedule(info ProducerInfo, v string, region geometry.BBox) []transport.ReadSpec {
	var sched []transport.ReadSpec
	dc := info.Decomp
	for rank := 0; rank < dc.NumTasks(); rank++ {
		for _, sub := range dc.Pieces(rank, region) {
			sched = append(sched, readSpec(info.CoreOf(rank), v, dc.BlockContaining(sub.Min), sub))
		}
	}
	return orderSchedule(sched)
}

// readSpec is the one place a schedule element is made: read the cells of
// sub out of the block of variable v that owner exposes under the region
// stored. The key name and the metered bytes are computed here, once per
// schedule, so a cached schedule is executed without re-deriving either.
func readSpec(owner cluster.CoreID, v string, stored, sub geometry.BBox) transport.ReadSpec {
	return transport.ReadSpec{
		Owner: owner,
		Key:   bufKey(v, stored, 0),
		Sub:   sub,
		Bytes: sub.Volume() * ElemSize,
	}
}

// orderSchedule puts a schedule in its one fixed order: by owner, then by
// the sub-box corners. Both builders emit one spec per stored block and the
// sub-boxes of a schedule are disjoint, so the order is total — it is the
// spec order on the wire and what makes PullError's "first sub-box" stable.
func orderSchedule(sched []transport.ReadSpec) []transport.ReadSpec {
	obsSchedTransfers.Add(int64(len(sched)))
	slices.SortFunc(sched, func(a, b transport.ReadSpec) int {
		if a.Owner != b.Owner {
			return cmp.Compare(a.Owner, b.Owner)
		}
		return geometry.Compare(a.Sub, b.Sub)
	})
	if mutate.Enabled(mutate.SchedDropTransfer) && len(sched) > 1 {
		sched = sched[:len(sched)-1] // seeded defect: the ordering step lost a spec
	}
	return sched
}

// maxTileDim bounds the rank of a region tiles checks: a box has 2^d
// corners.
const maxTileDim = 16

// tileScratch is the working table of one tiles call: the signed count at
// every corner met so far whose counts have not cancelled, how many such
// corners there are, and the lattice strides and per-axis steps of the box
// being counted. Pooled (tilePool), so a warm check allocates nothing.
type tileScratch struct {
	count        map[int64]int32
	nonzero      int
	stride, step [maxTileDim]int64
}

var tilePool = sync.Pool{New: func() any { return &tileScratch{count: make(map[int64]int32)} }}

// tiles reports whether the sub-boxes of sched tile region exactly: every
// cell of region lies in exactly one of them, and none reaches outside it.
// It compares signed corner counts. The 2^d corners of a box, each counted
// (−1)^k where k is the number of its upper coordinates, are the
// d-dimensional difference of the box's indicator function, and that
// difference is invertible: the sub-boxes' counts add up to the region's
// at every point exactly when their indicators add up to the region's. So
// the check is exact and costs O(n·2^d) for n sub-boxes: a sub-box outside
// region fails at once, and every other corner is keyed by its offset in
// region's lattice of corners, size+1 points a side.
func tiles(region geometry.BBox, sched []transport.ReadSpec) bool {
	s := tilePool.Get().(*tileScratch)
	ok := s.tiles(region, sched)
	if len(s.count) > 0 {
		clear(s.count)
	}
	s.nonzero = 0
	tilePool.Put(s)
	return ok
}

func (s *tileScratch) tiles(region geometry.BBox, sched []transport.ReadSpec) bool {
	d := region.Dim()
	if d == 0 || d > maxTileDim || region.Empty() {
		return false
	}
	stride := int64(1)
	for i := d - 1; i >= 0; i-- {
		s.stride[i] = stride
		side := int64(region.Size(i)) + 1
		if stride > math.MaxInt64/side {
			return false
		}
		stride *= side
	}
	s.add(region, region, -1)
	for _, spec := range sched {
		if spec.Sub.Dim() != d || spec.Sub.Empty() || !region.ContainsBox(spec.Sub) {
			return false
		}
		s.add(region, spec.Sub, 1)
	}
	return s.nonzero == 0
}

// add counts the corners of b, a box inside region, with weight w at its
// lower corner. It walks them in Gray-code order: each step moves one
// coordinate between its lower and upper bound and flips the sign.
func (s *tileScratch) add(region, b geometry.BBox, w int32) {
	d := b.Dim()
	var key int64
	for i := 0; i < d; i++ {
		key += int64(b.Min[i]-region.Min[i]) * s.stride[i]
		s.step[i] = int64(b.Size(i)) * s.stride[i]
	}
	upper := 0
	for g := 1; ; g++ {
		s.bump(key, w)
		if g == 1<<d {
			return
		}
		i := bits.TrailingZeros(uint(g))
		if upper ^= 1 << i; upper&(1<<i) != 0 {
			key += s.step[i]
		} else {
			key -= s.step[i]
		}
		w = -w
	}
}

// bump adds w to the count at key. A count that cancels is deleted, so the
// table holds only the corners still waiting for their match.
func (s *tileScratch) bump(key int64, w int32) {
	n := s.count[key] + w
	if n == 0 {
		delete(s.count, key)
		s.nonzero--
		return
	}
	if n == w { // was zero
		s.nonzero++
	}
	s.count[key] = n
}

// PutSequential stores one block of a variable in the space: the data
// stays in this core's memory, is exposed for remote pulls, and its
// location is registered with the lookup service so consumers launched
// after this application completes can find it. The data slice is owned by
// the space afterwards: the exposed block and the put recorder both keep
// it, uncopied.
//
// Under the space's retry policy a staging that failed transiently is
// attempted again with backoff, so a put whose owner is lost mid-put waits
// out the replacement and the reconcile instead of failing its task (tasks
// are never re-run); a registration the lookup client gave up on is not.
// An attempt after the first starts by withdrawing the buffer: an expose
// whose acknowledgement was lost may have landed.
func (h *Handle) PutSequential(v string, version int, region geometry.BBox, data []float64) error {
	if err := validatePut(v, region, data); err != nil {
		return err
	}
	pol := h.sp.RetryPolicy()
	if !pol.Enabled() {
		return h.putAttempt(v, version, region, data)
	}
	_, err := retry.Do(pol, opSeed(h.core, v, version),
		func(d time.Duration) { obsPullBackoffNs.Observe(d.Nanoseconds()) },
		func(attempt int) error {
			if attempt > 1 {
				obsPutRetries.Inc()
				h.sp.tracer.Load().Event(h.spanParent, "retry:put:"+v)
				if err := h.Discard(v, version, region); err != nil {
					return err
				}
			}
			return h.putAttempt(v, version, region, data)
		})
	return err
}

// putAttempt is one staging of a validated block: record, expose, register
// — undone on failure, so another attempt starts clean.
func (h *Handle) putAttempt(v string, version int, region geometry.BBox, data []float64) error {
	obj := &StoredObject{Region: region.Clone(), Data: data}
	// Record the block BEFORE exposing it: an expose can be acknowledged
	// by a process that dies immediately after, and a reconcile that runs
	// later must find the block in its ledger snapshot to re-stage it. The
	// doomed process died before the reconcile observed its loss, so any
	// expose it acknowledged — and therefore this record — happens-before
	// the snapshot. Recording after the expose leaves a window where the
	// lookup registration lands post-reconcile and the data is gone for
	// good.
	if r := h.sp.putRecorder.Load(); r != nil {
		(*r).RecordPut(v, version, region, h.core, h.app, data)
	}
	err := h.endpoint().Expose(bufKey(v, region, version), obj)
	if errors.Is(err, transport.ErrExposed) {
		// Exposed but not located: an earlier put failed and so did its
		// cleanup below. Withdraw it and stage this one.
		if at, qerr := h.lookupClient().Query(h.phase, h.app, v, version, region); qerr == nil &&
			!slices.ContainsFunc(at, func(e dht.Entry) bool { return e.Owner == h.core && e.Region.Equal(region) }) {
			if err = h.Discard(v, version, region); err == nil {
				err = h.endpoint().Expose(bufKey(v, region, version), obj)
			}
		}
	}
	if err != nil {
		if r := h.sp.putRecorder.Load(); r != nil {
			(*r).RecordDiscard(v, version, region, h.core)
		}
		return err
	}
	cl := h.lookupClient()
	if err := cl.Insert(h.phase, h.app, dht.Entry{Var: v, Version: version, Region: region, Owner: h.core}); err != nil {
		// The block is exposed and in the ledger but cannot be found: undo
		// both (and any location record a partial insert left behind), so
		// another attempt starts clean instead of failing with "already
		// exposed".
		return errors.Join(err, h.DiscardSequential(v, version, region))
	}
	return nil
}

// GetSequential retrieves the cells of region for a variable from the
// space's distributed storage, using the lookup service to build the
// communication schedule. The result is row-major over region.
func (h *Handle) GetSequential(v string, version int, region geometry.BBox) ([]float64, error) {
	return h.get("seq", v, version, region, func() ([]transport.ReadSpec, error) {
		return h.sequentialSchedule(v, version, region)
	})
}

// get is the one retrieval loop of both Get operators, and the only place
// a get retries. Each attempt takes the schedule — cached, or built by
// build — and pulls it. Under the space's retry policy an attempt that
// failed transiently — a read its transport marked so, or a lookup answer
// short of the region (coverageError) — is made again after the policy's
// backoff, at most MaxAttempts times in all: between a replacement process
// coming up and the reconcile re-registering what its DHT core held, the
// records of live data are missing from the table, and a consumer that
// asks in that window waits it out. Every other error ends the get,
// including a lookup the DHT client gave up on. A retry keeps its
// schedule unless the variable's invalidation stamp has moved since it was
// taken: it re-queries the lookup exactly when a discard or re-stage
// happened, and counts no extra cache hit.
func (h *Handle) get(op, v string, version int, region geometry.BBox, build func() ([]transport.ReadSpec, error)) ([]float64, error) {
	if region.Empty() {
		return nil, fmt.Errorf("cods: empty get region for %q", v)
	}
	key := h.schedKey(op, v, region)
	var (
		sched []transport.ReadSpec
		gen   uint64 // the invalidation stamp sched was taken under
		out   []float64
	)
	pol := h.sp.RetryPolicy()
	if mutate.Enabled(mutate.GetNoRetry) {
		pol.MaxAttempts = 1 // seeded defect: every failure ends the get
	}
	attempts, err := retry.Do(pol, opSeed(h.core, v, version),
		func(d time.Duration) { obsPullBackoffNs.Observe(d.Nanoseconds()) },
		func(attempt int) (err error) {
			if attempt > 1 {
				obsPullRetries.Inc()
				h.sp.tracer.Load().Event(h.spanParent, "retry:pull:"+v)
			}
			if sched == nil || gen != h.sp.scheduleStamp(v) {
				if sched, gen, err = h.schedule(key, v, region, build); err != nil {
					return err
				}
			}
			out, err = h.pull(v, version, region, sched)
			return err
		})
	if err != nil {
		if pe := (*PullError)(nil); errors.As(err, &pe) {
			pe.Attempts = attempts
		}
		return nil, err
	}
	if attempts > 1 {
		obsPullRecoveries.Inc()
		h.sp.tracer.Load().Event(h.spanParent, "recovered:pull:"+v)
	}
	return out, nil
}

// coverageError reports a schedule whose pieces do not tile a get's region
// (tiles): a lookup answer short of the region, or with records that
// overlap. It is transient: the missing records may be re-registered, and
// a reconcile's duplicate record removed.
type coverageError string

func (e coverageError) Error() string { return string(e) }

func (coverageError) Transient() bool { return true }

// sequentialSchedule converts the location entries of the region into a
// read list: the entries the handle has located when they tile the region,
// else the lookup service's answer, which it then locates (schedule drops
// an answer that does not tile).
func (h *Handle) sequentialSchedule(v string, version int, region geometry.BBox) ([]transport.ReadSpec, error) {
	gen := h.sp.scheduleStamp(v)
	if sched := h.locatedSchedule(v, version, region, gen); sched != nil {
		return sched, nil
	}
	entries, err := h.lookupClient().Query(h.phase, h.app, v, version, region)
	if err != nil {
		return nil, err
	}
	h.locate(v, version, gen, entries)
	return orderSchedule(readList(v, entries, region)), nil
}

// readList is one spec per entry meeting region, reading the part of
// region it holds.
func readList(v string, entries []dht.Entry, region geometry.BBox) []transport.ReadSpec {
	sched := make([]transport.ReadSpec, 0, len(entries))
	for _, e := range entries {
		if sub, ok := e.Region.Intersect(region); ok {
			sched = append(sched, readSpec(e.Owner, v, e.Region, sub))
		}
	}
	return sched
}

// locatedSchedule builds the schedule of a get from the handle's located
// entries of v at version, or returns nil when they cannot answer: the
// cache is off, the stamp has moved since they were located (which drops
// every stale table of v), or the entries meeting region do not tile it.
// Entries that tile the region are, under an unmoved stamp, those a lookup
// would return, so the schedule is the one it would build, spec for spec.
func (h *Handle) locatedSchedule(v string, version int, region geometry.BBox, gen uint64) []transport.ReadSpec {
	if !h.CacheEnabled || region.Dim() != h.sp.lookup.Curve().Dim() {
		return nil
	}
	k := locatedKey{v, version}
	if h.pending.key == k {
		h.index()
	}
	l := h.located[k]
	if l == nil {
		return nil
	}
	if l.gen != gen {
		maps.DeleteFunc(h.located, func(k locatedKey, o *located) bool {
			if k.v == v && o.gen != gen {
				h.nLocated -= o.at.Len()
				return true
			}
			return false
		})
		return nil
	}
	sched := readList(v, l.at.Overlapping(region), region)
	if !tiles(region, sched) {
		return nil
	}
	return orderSchedule(sched)
}

// locate keeps the entries of a lookup answer of v at version that covered
// its get, taken under stamp gen, as the pending answer, and indexes the
// one it replaces.
func (h *Handle) locate(v string, version int, gen uint64, entries []dht.Entry) {
	if !h.CacheEnabled || len(entries) > maxLocatedEntries {
		return
	}
	h.index()
	h.pending = answer{key: locatedKey{v, version}, gen: gen, entries: entries}
}

// index moves the pending answer into the located table of its variable
// version. A table of an older stamp is replaced, and a fill that could
// pass maxLocatedEntries first empties every table.
func (h *Handle) index() {
	a := h.pending
	if a.entries == nil {
		return
	}
	h.pending = answer{}
	if h.nLocated+len(a.entries) > maxLocatedEntries {
		clear(h.located)
		h.nLocated = 0
	}
	l := h.located[a.key]
	if l == nil || l.gen != a.gen {
		if l != nil {
			h.nLocated -= l.at.Len()
		}
		if h.located == nil {
			h.located = make(map[locatedKey]*located)
		}
		l = &located{gen: a.gen}
		h.located[a.key] = l
	}
	for _, e := range a.entries {
		if l.at.Insert(e) {
			h.nLocated++
		}
	}
}

// PullError reports the transfer of a schedule that ultimately failed:
// which sub-box of which variable version could not be pulled from which
// owner, and after how many attempts. It unwraps to the transport-level
// cause, so errors.Is(err, transport.ErrEndpointClosed) and
// errors.Is(err, transport.ErrInjected) keep working through it.
type PullError struct {
	// Var and Version name the data being retrieved.
	Var     string
	Version int
	// Sub is the sub-box of the failed transfer; Owner the core it was
	// pulled from.
	Sub   geometry.BBox
	Owner cluster.CoreID
	// Attempts is the number of attempts the get made.
	Attempts int
	// Err is the underlying failure of the last attempt.
	Err error
}

// Error formats the failure with the sub-box that ultimately failed.
func (e *PullError) Error() string {
	return fmt.Sprintf("cods: pulling %v of %q v%d from core %d failed after %d attempt(s): %v",
		e.Sub, e.Var, e.Version, e.Owner, e.Attempts, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *PullError) Unwrap() error { return e.Err }

// opSeed derives the deterministic backoff seed of one put or get from its
// coordinates, so backoff schedules are reproducible run to run.
func opSeed(core cluster.CoreID, v string, version int) uint64 {
	s := uint64(core)<<32 ^ uint64(uint32(version))
	for _, ch := range v {
		s = s*0x100000001b3 + uint64(ch)
	}
	return s
}

// pull is one attempt of a get: a receiver-driven pull of every piece of
// the schedule as one Endpoint.ReadMulti, on either fabric, assembling the
// row-major result. On a driver's fabric the backend writes every owning
// node its request before it reads any answer and decides which answers
// get a goroutine of their own; in process the reads run in turn on this
// goroutine. pull spawns nothing. A schedule's sub-boxes tile the region
// (schedule checked it when it built the schedule), so every segment lands
// in its own cells of the output without locking and the result does not
// depend on delivery order. The output is not cleared (lazyOutput): pull
// counts the cells its segments wrote, and a read that returns with any
// cell unwritten is an error, so no cell is returned unwritten. A failed
// read is a *PullError naming the first sub-box of the owning node it is
// attributed to (failedSpec); get fills in its Attempts.
func (h *Handle) pull(v string, version int, region geometry.BBox, sched []transport.ReadSpec) ([]float64, error) {
	if obs.Enabled() {
		start := time.Now()
		obsPullOps.Inc()
		obsPullTransfers.Add(int64(len(sched)))
		obsPullBytes.Add(region.Volume() * ElemSize)
		defer func() { obsPullNs.Observe(time.Since(start).Nanoseconds()) }()
	}
	out := &lazyOutput{n: region.Volume()}
	m := h.meter()
	if tr := h.sp.tracer.Load(); tr != nil {
		span := tr.Start(h.spanParent, "pull:"+v)
		defer span.End()
		// The span id travels in the meter as wire trace context, so a
		// remote backend's handler spans parent under this pull span.
		m.Span = uint64(span.ID())
	}
	// A private copy stamped with the get's version: the cached schedule
	// stays versionless.
	specs := append([]transport.ReadSpec(nil), sched...)
	for i := range specs {
		specs[i].Key.Version = version
	}
	err := h.endpoint().ReadMulti(specs, m, func(i int, payload any, clipped []byte) error {
		sub := specs[i].Sub
		switch obj := payload.(type) {
		case nil: // clipped by its owner in another process
			if err := copySegment(out.cells(), region, clipped, sub); err != nil {
				return err
			}
		case *StoredObject:
			copyRegion(out.cells(), region, obj.Data, obj.Region, sub)
		default:
			return fmt.Errorf("cods: exposed payload %T cannot be read", payload)
		}
		out.written.Add(sub.Volume())
		return nil
	})
	if err != nil {
		failed := failedSpec(h.sp.fabric.Machine(), specs, err)
		return nil, &PullError{Var: v, Version: version, Sub: failed.Sub, Owner: failed.Owner, Err: err}
	}
	if n := out.written.Load(); n != out.n {
		return nil, fmt.Errorf("cods: pulling %v of %q v%d: the read delivered %d of its %d cells",
			region, v, version, n, out.n)
	}
	return out.cells(), nil
}

// lazyOutput is the row-major result buffer of one pull, shared by its
// segments, which a backend may deliver from several goroutines: the first
// call to cells allocates it, whichever makes it, and written counts the
// cells the segments wrote. The buffer is not cleared (uninitCells): each
// cell is written exactly once, by the one segment whose sub-box holds it,
// as the schedule's sub-boxes tile the region and pull returns the buffer
// only once written has reached n.
type lazyOutput struct {
	once    sync.Once
	n       int64
	buf     []float64
	written atomic.Int64
}

func (o *lazyOutput) cells() []float64 {
	o.once.Do(func() { o.buf = uninitCells(o.n) })
	return o.buf
}

// failedSpec is the spec a failed pull's PullError names: the first spec
// on the owning node of the spec the failure is attributed to
// (transport.SpecError), or the schedule's first spec when it is attributed
// to none. A schedule is sorted by owner, so a node's specs are one run.
func failedSpec(m *cluster.Machine, specs []transport.ReadSpec, err error) transport.ReadSpec {
	i := 0
	if se := (*transport.SpecError)(nil); errors.As(err, &se) && se.Index >= 0 && se.Index < len(specs) {
		i = se.Index
	}
	for i > 0 && m.NodeOf(specs[i-1].Owner) == m.NodeOf(specs[i].Owner) {
		i--
	}
	return specs[i]
}

// Discard withdraws a previously put block so its memory slot can be
// reused (between iterations). Withdrawing a block that is not exposed is
// no error; a failed withdrawal can be retried.
func (h *Handle) Discard(v string, version int, region geometry.BBox) error {
	return h.endpoint().Unexpose(bufKey(v, region, version))
}

// DiscardSequential garbage-collects a sequentially stored block: the
// buffer is withdrawn and its location record removed from the lookup
// service, so later gets of that version fail with a coverage error
// instead of pulling stale data. Every consumer's cached schedules for the
// variable are invalidated, so a restage of the data at a different owner
// can never be pulled from the old owner via a stale cached schedule, and
// the put recorder drops the block. Iterative producers call it on
// versions no consumer will read again.
func (h *Handle) DiscardSequential(v string, version int, region geometry.BBox) error {
	// A failed withdrawal does not stop the location record from being
	// removed: consumers must stop being routed to the block either way.
	derr := h.Discard(v, version, region)
	err := h.lookupClient().Remove(h.phase, h.app,
		dht.Entry{Var: v, Version: version, Region: region, Owner: h.core})
	h.sp.InvalidateSchedules(v)
	if r := h.sp.putRecorder.Load(); r != nil {
		(*r).RecordDiscard(v, version, region, h.core)
	}
	return errors.Join(derr, err)
}

// schedKey builds the cache key for a schedule: operator, owning app,
// variable and query region. The handle's app is part of the key so a
// cache can never be misread if handles are ever shared across apps.
func (h *Handle) schedKey(op, v string, region geometry.BBox) string {
	return op + "|" + strconv.Itoa(h.app) + "|" + v + "|" + region.String()
}

// schedule returns the communication schedule cached under key, or builds
// one and caches it, with the invalidation stamp it was computed under.
// The stamp is captured before the build, so an invalidation racing with
// it leaves the entry already stale instead of masked. A stale entry
// drops every entry of v computed before the stamp moved. Every schedule
// it builds, whichever the builder, must tile region (tiles), or the get
// fails with a coverageError and the pending lookup answer (on a lookup,
// the one just kept) is dropped.
func (h *Handle) schedule(key, v string, region geometry.BBox, build func() ([]transport.ReadSpec, error)) ([]transport.ReadSpec, uint64, error) {
	gen := h.sp.scheduleStamp(v)
	if e, ok := h.schedCache[key]; ok && h.CacheEnabled {
		if e.gen == gen || mutate.Enabled(mutate.StaleEpoch) {
			h.CacheHits++
			obsSchedHits.Inc()
			return e.sched, e.gen, nil
		}
		maps.DeleteFunc(h.schedCache, func(_ string, o schedEntry) bool { return o.v == v && o.gen != gen })
	}
	sched, err := build()
	if err != nil {
		return nil, 0, err
	}
	if !tiles(region, sched) {
		h.pending = answer{}
		return nil, 0, coverageError(fmt.Sprintf("cods: %q: the stored pieces found (%d) do not tile the %d cells of %v",
			v, len(sched), region.Volume(), region))
	}
	h.CacheMisses++
	obsSchedMisses.Inc()
	if h.CacheEnabled {
		if len(h.schedCache) >= maxCachedSchedules {
			clear(h.schedCache)
		}
		h.schedCache[key] = schedEntry{v: v, sched: sched, gen: gen}
	}
	return sched, gen, nil
}

// copyRegion copies the cells of sub from src (row-major over srcBox) to
// dst (row-major over dstBox) using contiguous runs along the last
// dimension. Each box has its own row odometer: both visit the rows of sub
// in the same order, each advancing by its own box's strides.
func copyRegion(dst []float64, dstBox geometry.BBox, src []float64, srcBox geometry.BBox, sub geometry.BBox) {
	if sub.Empty() {
		return
	}
	run := int64(sub.Size(sub.Dim() - 1))
	ps := append(make([]int, 0, 4), sub.Min...)
	pd := append(make([]int, 0, 4), sub.Min...)
	from, to := srcBox.Offset(sub.Min), dstBox.Offset(sub.Min)
	for {
		copy(dst[to:to+run], src[from:from+run])
		srcStep, more := nextRow(ps, sub, srcBox)
		if !more {
			return
		}
		dstStep, _ := nextRow(pd, sub, dstBox)
		from, to = from+srcStep, to+dstStep
	}
}
