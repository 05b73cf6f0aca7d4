package cods

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
)

// fakeBackend is a transport.Backend standing in for a wire: the fabric it
// embeds executes every operation, and the first failures withdrawals, the
// first exposeFailures exposes and the first callFailures RPCs fail the way
// a dropped connection would — with an error marked transient, as a wire
// marks it — and the first lostAcks exposes that get through land and then
// fail, the way a lost acknowledgement would.
type fakeBackend struct {
	*transport.Fabric
	failures       atomic.Int32
	exposeFailures atomic.Int32
	callFailures   atomic.Int32
	lostAcks       atomic.Int32
}

var errRoundTrip = transport.Transient(errors.New("fake backend: connection reset"))

func (b *fakeBackend) Call(src, dst cluster.CoreID, service string, request any, m transport.Meter, reqBytes, respBytes int64) (any, error) {
	if b.callFailures.Add(-1) >= 0 {
		return nil, errRoundTrip
	}
	return b.Fabric.Call(src, dst, service, request, m, reqBytes, respBytes)
}

func (b *fakeBackend) Expose(owner cluster.CoreID, key transport.BufKey, payload any) error {
	if b.exposeFailures.Add(-1) >= 0 {
		return errRoundTrip
	}
	err := b.Fabric.Expose(owner, key, payload)
	if b.lostAcks.Add(-1) >= 0 {
		return errRoundTrip
	}
	return err
}

func (b *fakeBackend) Unexpose(owner cluster.CoreID, key transport.BufKey) error {
	if b.failures.Add(-1) >= 0 {
		return errRoundTrip
	}
	return b.Fabric.Unexpose(owner, key)
}

// recordingBackend counts the operations the endpoints hand their fabric's
// backend and passes each to the fabric it embeds.
type recordingBackend struct {
	*transport.Fabric
	mu  sync.Mutex
	ops map[string]int
}

func (b *recordingBackend) saw(op string) {
	b.mu.Lock()
	b.ops[op]++
	b.mu.Unlock()
}

func (b *recordingBackend) ReadMulti(reader cluster.CoreID, specs []transport.ReadSpec, m transport.Meter, deliver transport.SegmentFunc) error {
	b.saw("ReadMulti")
	return b.Fabric.ReadMulti(reader, specs, m, deliver)
}

func (b *recordingBackend) Call(src, dst cluster.CoreID, service string, request any, m transport.Meter, reqBytes, respBytes int64) (any, error) {
	b.saw("Call")
	return b.Fabric.Call(src, dst, service, request, m, reqBytes, respBytes)
}

func (b *recordingBackend) Expose(owner cluster.CoreID, key transport.BufKey, payload any) error {
	b.saw("Expose")
	return b.Fabric.Expose(owner, key, payload)
}

func (b *recordingBackend) Unexpose(owner cluster.CoreID, key transport.BufKey) error {
	b.saw("Unexpose")
	return b.Fabric.Unexpose(owner, key)
}

// TestFabricIsItsOwnBackend: an in-process fabric executes through the
// same Backend interface a driver's fabric does, so a backend that embeds
// the fabric sees every operation on node-held state — a put's Expose and
// DHT Call, a get's ReadMulti, a discard's Unexpose — and the machine
// meters the same bytes and flows as a run without it.
func TestFabricIsItsOwnBackend(t *testing.T) {
	run := func(wrap bool) (map[string]int, cluster.MetricsSnapshot) {
		m, sp := testRig(t, 2, 2, []int{8, 8})
		be := &recordingBackend{Fabric: sp.Fabric(), ops: map[string]int{}}
		if wrap {
			sp.Fabric().SetBackend(be)
		}
		blocks := []geometry.BBox{ // one on core 0 of node 0, one on core 2 of node 1
			geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 8}),
			geometry.NewBBox(geometry.Point{4, 0}, geometry.Point{8, 8}),
		}
		for i, blk := range blocks {
			if err := sp.HandleAt(cluster.CoreID(2*i), 1, "put").PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
				t.Fatal(err)
			}
		}
		domain := geometry.BoxFromSize([]int{8, 8})
		got, err := sp.HandleAt(1, 2, "get").GetSequential("v", 0, domain)
		if err != nil {
			t.Fatal(err)
		}
		checkRegion(t, domain, got)
		for i, blk := range blocks {
			if err := sp.HandleAt(cluster.CoreID(2*i), 1, "put").DiscardSequential("v", 0, blk); err != nil {
				t.Fatal(err)
			}
		}
		snap := m.Metrics().Snapshot()
		slices.SortFunc(snap.Flows, func(a, b cluster.Flow) int {
			return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
		})
		slices.SortFunc(snap.PerApp, func(a, b cluster.AppClassBytes) int {
			return cmp.Or(cmp.Compare(a.App, b.App), cmp.Compare(a.Class, b.Class))
		})
		return be.ops, snap
	}
	ops, wrapped := run(true)
	if len(wrapped.Flows) == 0 {
		t.Fatal("the run metered no flow")
	}
	for _, op := range []string{"Expose", "Call", "ReadMulti", "Unexpose"} {
		if ops[op] == 0 {
			t.Errorf("the backend saw no %s (saw %v)", op, ops)
		}
	}
	if _, plain := run(false); !reflect.DeepEqual(wrapped, plain) {
		t.Fatalf("metered through the wrapper:\n%+v\nwithout it:\n%+v", wrapped, plain)
	}
}

// TestDiscardSurvivesFailedRoundTrip: when the first buffer-state round
// trip of a discard fails, the error must surface and the block stay
// exposed, and the retried discard must withdraw it.
func TestDiscardSurvivesFailedRoundTrip(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8, 8})
	be := &fakeBackend{Fabric: sp.Fabric()}
	sp.Fabric().SetBackend(be)
	blk := geometry.BoxFromSize([]int{8, 8})
	h := sp.HandleAt(0, 1, "p")
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}

	be.failures.Store(1)
	if err := h.DiscardSequential("v", 0, blk); !errors.Is(err, errRoundTrip) {
		t.Fatalf("discard over a failing round trip: err = %v, want the round-trip error", err)
	}
	if !sp.Fabric().Exposed(0, bufKey("v", blk, 0)) {
		t.Fatal("the block was withdrawn by a discard that failed")
	}
	if err := h.DiscardSequential("v", 0, blk); err != nil {
		t.Fatalf("retried discard: %v", err)
	}
	if sp.Fabric().Exposed(0, bufKey("v", blk, 0)) {
		t.Fatal("the block is still exposed after the retried discard")
	}
	if err := h.PutSequential("v", 1, blk, fillRegion(blk)); err != nil {
		t.Fatalf("put after retried discard: %v", err)
	}
}

// TestPutSequentialUndoesFailedInsert is the regression test for the
// leaked put: when the lookup registration of a staged block fails, the
// block must not stay exposed and in the staged table — the error surfaces,
// and the retried put succeeds instead of failing with "already exposed".
func TestPutSequentialUndoesFailedInsert(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8, 8})
	be := &fakeBackend{Fabric: sp.Fabric()}
	sp.Fabric().SetBackend(be)
	blk := geometry.BoxFromSize([]int{8, 8})
	h := sp.HandleAt(0, 1, "p")

	be.callFailures.Store(1)
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); !errors.Is(err, errRoundTrip) {
		t.Fatalf("put over a failing insert: err = %v, want the round-trip error", err)
	}
	if be.Exposed(0, bufKey("v", blk, 0)) {
		t.Fatal("block still exposed after the failed put")
	}
	if got := len(sp.Staged()); got != 0 {
		t.Fatalf("staged table holds %d blocks after the failed put, want 0", got)
	}
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatalf("retried put: %v", err)
	}
	if n := sp.Lookup().TableSize(0); n != 1 {
		t.Fatalf("%d location records after the retried put, want 1", n)
	}
	got, err := sp.HandleAt(1, 2, "g").GetSequential("v", 0, blk)
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, blk, got)
}

// TestPutSequentialRestagesStrandedBlock: a put whose lookup insert fails
// after the DHT client spent its budget, and whose cleanup then fails to
// withdraw the block, leaves the block exposed with no location record.
// A later put of the same block stages it — exposed once, one location
// record, one staged-table record — instead of failing on "already exposed".
func TestPutSequentialRestagesStrandedBlock(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8, 8})
	be := &fakeBackend{Fabric: sp.Fabric()}
	sp.Fabric().SetBackend(be)
	sp.SetRetryPolicy(fastPolicy(2))
	blk := geometry.BoxFromSize([]int{8, 8})
	h := sp.HandleAt(0, 1, "p")

	be.callFailures.Store(2)
	be.failures.Store(1)
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); !errors.Is(err, errRoundTrip) {
		t.Fatalf("put over a failing insert and withdrawal: err = %v, want the round-trip error", err)
	}
	if !sp.Fabric().Exposed(0, bufKey("v", blk, 0)) {
		t.Fatal("the failed put's withdrawal failed, yet the block is not exposed: the scenario did not happen")
	}
	if n := sp.Lookup().TableSize(0); n != 0 {
		t.Fatalf("%d location records after the failed put, want 0", n)
	}
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatalf("put of the stranded block: %v", err)
	}
	if !sp.Fabric().Exposed(0, bufKey("v", blk, 0)) {
		t.Fatal("the block is not exposed after the second put")
	}
	if n := sp.Lookup().TableSize(0); n != 1 {
		t.Fatalf("%d location records after the second put, want 1", n)
	}
	if got := len(sp.Staged()); got != 1 {
		t.Fatalf("staged table holds %d blocks after the second put, want 1", got)
	}
	got, err := sp.HandleAt(1, 2, "g").GetSequential("v", 0, blk)
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, blk, got)
}

// TestPutSequentialRetriesFailedExpose: under a retry policy a put whose
// expose fails three times is staged by its fourth attempt — one exposure,
// one location record, the block in the staged table, and each re-attempt counted in cods.put.retries and traced as a
// retry:put:<var> event. With the policy disabled the first failure is
// returned and nothing is left behind.
func TestPutSequentialRetriesFailedExpose(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	const failures = 3
	for _, pol := range []retry.Policy{{}, fastPolicy(failures + 1)} {
		_, sp := testRig(t, 1, 2, []int{8, 8})
		be := &fakeBackend{Fabric: sp.Fabric()}
		sp.Fabric().SetBackend(be)
		sp.SetRetryPolicy(pol)
		var spans bytes.Buffer
		tr := obs.NewTracer(&spans)
		sp.SetTracer(tr)
		blk := geometry.BoxFromSize([]int{8, 8})
		retries := obs.C("cods.put.retries")
		before := retries.Value()

		be.exposeFailures.Store(failures)
		err := sp.HandleAt(0, 1, "p").PutSequential("v", 0, blk, fillRegion(blk))
		exposed := be.Exposed(0, bufKey("v", blk, 0))
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		state := fmt.Sprintf("exposed=%v, %d records, %d staged, %d retries, %d events",
			exposed, sp.Lookup().TableSize(0), len(sp.Staged()),
			retries.Value()-before, strings.Count(spans.String(), `"retry:put:v"`))
		if !pol.Enabled() {
			if !errors.Is(err, errRoundTrip) || state != "exposed=false, 0 records, 0 staged, 0 retries, 0 events" {
				t.Fatalf("without a policy: err = %v, %s; want the expose's error and nothing left", err, state)
			}
			continue
		}
		if err != nil {
			t.Fatalf("put over %d failed exposes: %v", failures, err)
		}
		want := fmt.Sprintf("exposed=true, 1 records, 1 staged, %d retries, %d events",
			failures, failures)
		if state != want {
			t.Fatalf("after the retried put: %s; want %s", state, want)
		}
		got, err := sp.HandleAt(1, 2, "g").GetSequential("v", 0, blk)
		if err != nil {
			t.Fatal(err)
		}
		checkRegion(t, blk, got)
	}
}

// TestRetriedPutReservesOnce: a core already holds block A when the put of
// B fails and is re-attempted. Whether B's expose landed and lost its
// acknowledgement, or also the re-attempt's withdrawal of it failed, the
// re-attempts must leave B staged once: exposed, with one location record,
// and readable.
func TestRetriedPutReservesOnce(t *testing.T) {
	a := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 8})
	b := geometry.NewBBox(geometry.Point{4, 0}, geometry.Point{8, 8})
	for _, tc := range []struct {
		name string
		fail func(be *fakeBackend)
	}{
		{"lost expose acknowledgement", func(be *fakeBackend) { be.lostAcks.Store(1) }},
		{"lost ack, then failed withdrawal", func(be *fakeBackend) {
			be.lostAcks.Store(1)
			be.failures.Store(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, sp := testRig(t, 1, 2, []int{8, 8})
			be := &fakeBackend{Fabric: sp.Fabric()}
			sp.Fabric().SetBackend(be)
			sp.SetRetryPolicy(fastPolicy(3))
			h := sp.HandleAt(0, 1, "p")
			if err := h.PutSequential("v", 0, a, fillRegion(a)); err != nil {
				t.Fatal(err)
			}
			tc.fail(be)
			if err := h.PutSequential("v", 0, b, fillRegion(b)); err != nil {
				t.Fatalf("re-attempted put: %v", err)
			}
			if !sp.Fabric().Exposed(0, bufKey("v", b, 0)) {
				t.Fatal("B is not exposed after the re-attempted put")
			}
			entries, err := sp.Lookup().ClientAt(1).Query("check", 2, "v", 0, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Owner != 0 || !entries[0].Region.Equal(b) {
				t.Fatalf("the lookup answers %+v for B, want its one record at core 0", entries)
			}
			got, err := sp.HandleAt(1, 2, "g").GetSequential("v", 0, b)
			if err != nil {
				t.Fatal(err)
			}
			checkRegion(t, b, got)
		})
	}
}

// TestRetireCountsFailedDiscard is the regression test for the dropped
// retirement error: when the withdrawal of a retired block fails (here a
// stream's, retired by a cursor's advance; every retirement withdraws
// through the same path), the stream still moves on (no retry, the advance
// succeeds), but the failure is counted in cods.retire_errors and traced
// as a retire-failed:<var> event instead of vanishing.
func TestRetireCountsFailedDiscard(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	_, sp := testRig(t, 1, 2, []int{8})
	be := &fakeBackend{Fabric: sp.Fabric()}
	sp.Fabric().SetBackend(be)
	var spans bytes.Buffer
	tr := obs.NewTracer(&spans)
	sp.SetTracer(tr)
	region := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 2}); err != nil {
		t.Fatal(err)
	}
	prod := sp.HandleAt(0, 1, "prod")
	cur, err := sp.HandleAt(1, 2, "cons").Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	for ver := 0; ver < 2; ver++ {
		if _, err := prod.Publish("u", 0, region, streamFill(region, ver)); err != nil {
			t.Fatal(err)
		}
	}
	errs := obs.C("cods.retire_errors")
	before := errs.Value()

	be.failures.Store(1)
	if err := cur.Advance(1); err != nil {
		t.Fatalf("advance over a failing withdrawal: %v", err)
	}
	if got := errs.Value() - before; got != 1 {
		t.Fatalf("retire_errors moved by %d after one failed withdrawal, want 1", got)
	}
	if err := cur.Advance(2); err != nil {
		t.Fatal(err)
	}
	if got := errs.Value() - before; got != 1 {
		t.Fatalf("retire_errors moved by %d after a clean withdrawal, want still 1", got)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(spans.String(), `"retire-failed:u"`); got != 1 {
		t.Fatalf("%d retire-failed:u events traced, want 1:\n%s", got, spans.String())
	}
}

// TestPartitionPulls pins how a get attempt splits its schedule across
// ReadMulti calls on either fabric: it does not. One attempt is one
// ReadMulti of the whole schedule (cods.pull.ops moves by one; a routed
// fabric's backend sees one call, none for an empty schedule), its specs
// in schedule order — the order the flow log books their reads in — each
// stamped with the get's version on a copy while the cached schedule stays
// versionless. Block i of the 36-cell variable holds i+1 cells and sits on
// core i, so a read's metered bytes name its spec; version 0 holds zeros,
// so a read of the wrong version shows in the result. On a driver's fabric
// the call runs on the calling goroutine, where tcpnet overlaps the
// requests to the peers (TestReadMultiOverlapsBigAnswers): pull itself
// spawns nothing, sampled while the get is inside the call.
func TestPartitionPulls(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	const version = 7
	for _, tc := range []struct {
		name   string
		inproc bool
		lo, hi int // the region read by the puller on core 0, of node 0
	}{
		{name: "empty schedule"},
		{name: "one remote node", lo: 3, hi: 10},
		{name: "three remote nodes", lo: 3, hi: 36},
		{name: "interleaved", lo: 0, hi: 36},
		{name: "no backend routes nothing", inproc: true, lo: 0, hi: 36},
		{name: "in process, one remote node", inproc: true, lo: 3, hi: 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, sp := testRig(t, 4, 2, []int{36})
			be := &peerBackend{}
			be.Fabric = sp.Fabric()
			if !tc.inproc {
				sp.Fabric().SetBackend(be)
			}
			for i, lo := 0, 0; i < m.TotalCores(); i, lo = i+1, lo+i+1 {
				blk := geometry.NewBBox(geometry.Point{lo}, geometry.Point{lo + i + 1})
				h := sp.HandleAt(cluster.CoreID(i), 1, "put")
				if err := h.PutSequential("v", 0, blk, make([]float64, i+1)); err != nil {
					t.Fatal(err)
				}
				if err := h.PutSequential("v", version, blk, fillRegion(blk)); err != nil {
					t.Fatal(err)
				}
			}
			spawned := -1
			be.hold = func() { spawned = spawnedByPull() }
			h := sp.HandleAt(0, 2, "get")
			region := geometry.NewBBox(geometry.Point{tc.lo}, geometry.Point{tc.hi})
			ops, logged := obsPullOps.Value(), len(m.Metrics().Flows(""))
			var sched []transport.ReadSpec
			if tc.hi > tc.lo {
				out, err := h.GetSequential("v", version, region)
				if err != nil {
					t.Fatal(err)
				}
				checkRegion(t, region, out)
				sched = h.schedCache[h.schedKey("seq", "v", region)].sched
			} else if _, err := h.pull("v", version, region, nil); err != nil {
				t.Fatal(err)
			}
			if got := obsPullOps.Value() - ops; got != 1 {
				t.Fatalf("cods.pull.ops moved by %d, want 1", got)
			}
			var flows []cluster.Flow
			for _, fl := range m.Metrics().Flows("")[logged:] {
				if fl.Class == cluster.InterApp.String() {
					flows = append(flows, fl)
				}
			}
			if len(flows) != len(sched) {
				t.Fatalf("%d reads booked for a schedule of %d", len(flows), len(sched))
			}
			for i, tr := range sched {
				if tr.Key.Version != 0 {
					t.Fatalf("the pull stamped version %d on the cached schedule", tr.Key.Version)
				}
				if fl := flows[i]; fl.Bytes != tr.Bytes || fl.Src != m.NodeOf(tr.Owner) {
					t.Fatalf("read %d booked %d bytes from node %d, want spec %d's %d from node %d",
						i, fl.Bytes, fl.Src, i, tr.Bytes, m.NodeOf(tr.Owner))
				}
			}
			calls := 0
			if !tc.inproc && len(sched) > 0 {
				calls = 1
			}
			if len(be.calls) != calls {
				t.Fatalf("%d ReadMulti calls on the backend, want %d", len(be.calls), calls)
			}
			if calls == 0 {
				return
			}
			for i, spec := range be.calls[0] {
				if want := sched[i]; spec.Key.Version != version || spec.Owner != want.Owner || !spec.Sub.Equal(want.Sub) {
					t.Fatalf("spec %d reads %v v%d on core %d, want the schedule's %v v%d on core %d",
						i, spec.Sub, spec.Key.Version, spec.Owner, want.Sub, version, want.Owner)
				}
			}
			if len(be.calls[0]) != len(sched) || spawned != 0 {
				t.Fatalf("the call carries %d of %d specs and the get spawned %d goroutines, want all and 0",
					len(be.calls[0]), len(sched), spawned)
			}
		})
	}
}

// peerBackend is a fakeBackend over a 4-node x 2-core machine that makes
// ReadMulti observable and steerable: it records the specs of every call,
// runs hold (when set) before serving, and fails a call with fail when it
// is set.
type peerBackend struct {
	fakeBackend
	mu    sync.Mutex
	calls [][]transport.ReadSpec
	hold  func()
	fail  error
}

func (b *peerBackend) ReadMulti(reader cluster.CoreID, specs []transport.ReadSpec, m transport.Meter, deliver transport.SegmentFunc) error {
	b.mu.Lock()
	b.calls = append(b.calls, append([]transport.ReadSpec(nil), specs...))
	b.mu.Unlock()
	if b.hold != nil {
		b.hold()
	}
	if b.fail != nil {
		return b.fail
	}
	return b.Fabric.ReadMulti(reader, specs, m, deliver)
}

// peerRig stages a 32-cell variable as eight 4-cell blocks, block i on
// core i, behind a peerBackend: each node owns two blocks, and nodes 1-3
// own the cells [8, 32) — three peers of a reader on core 0.
func peerRig(t *testing.T) (*Space, *peerBackend, []geometry.BBox) {
	t.Helper()
	m, sp := testRig(t, 4, 2, []int{32})
	be := &peerBackend{}
	be.Fabric = sp.Fabric()
	sp.Fabric().SetBackend(be)
	blocks := make([]geometry.BBox, m.TotalCores())
	for i := range blocks {
		blocks[i] = geometry.NewBBox(geometry.Point{4 * i}, geometry.Point{4 * (i + 1)})
		if err := sp.HandleAt(cluster.CoreID(i), 1, "put").PutSequential("v", 0, blocks[i], fillRegion(blocks[i])); err != nil {
			t.Fatal(err)
		}
	}
	return sp, be, blocks
}

// spawnedByPull counts the live goroutines the pull path of this package
// started, read off the "created by" line of every goroutine's stack:
// unlike a difference of runtime.NumGoroutine samples it ignores the RPC
// handler goroutines of earlier puts that are still winding down.
func spawnedByPull() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by github.com/insitu/cods/internal/cods.(*Handle).pull"))
}

// TestPullLocalRunsInline: a get on an in-process fabric runs its
// transfers on the calling goroutine and spawns nothing — sampled while the
// get is blocked inside its last transfer.
func TestPullLocalRunsInline(t *testing.T) {
	sp, _, blocks := peerRig(t)
	sp.Fabric().SetBackend(nil) // the staged buffers stay: they live on this fabric
	owner := sp.HandleAt(1, 1, "put")
	if err := owner.Discard("v", 0, blocks[1]); err != nil {
		t.Fatal(err)
	}
	region := geometry.NewBBox(geometry.Point{0}, geometry.Point{8})
	shm := func() int64 { return sp.Fabric().Machine().Metrics().Bytes(cluster.InterApp, cluster.SharedMemory) }
	pulled := shm()
	type result struct {
		out []float64
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := sp.HandleAt(0, 2, "get").GetSequential("v", 0, region)
		done <- result{out, err}
	}()
	// Block 0 metered and block 1 withdrawn: the get is inside (or about
	// to enter) its blocking read of block 1.
	for deadline := time.Now().Add(10 * time.Second); shm() != pulled+blocks[0].Volume()*ElemSize; {
		if time.Now().After(deadline) {
			t.Fatal("the get never pulled its first block")
		}
		time.Sleep(time.Millisecond)
	}
	if got := spawnedByPull(); got != 0 {
		t.Errorf("an all-local get spawned %d goroutines, want 0", got)
	}
	if err := owner.PutSequential("v", 0, blocks[1], fillRegion(blocks[1])); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	checkRegion(t, region, res.out)
}

// TestPullErrorNamesFailedNode: a routed pull that fails names, in its
// *PullError, the first sub-box of the owning node the backend attributes
// the failure to (a transport.SpecError at any of that node's specs), and
// the schedule's first sub-box when the failure names no spec, after the
// get's whole attempt budget.
func TestPullErrorNamesFailedNode(t *testing.T) {
	region := geometry.NewBBox(geometry.Point{8}, geometry.Point{32})
	for _, tc := range []struct {
		name  string
		fail  error
		owner cluster.CoreID
	}{
		{"node 2's second spec", &transport.SpecError{Index: 3, Err: errRoundTrip}, 5},
		{"node 2's first spec", &transport.SpecError{Index: 2, Err: errRoundTrip}, 4},
		{"node 3's first spec", &transport.SpecError{Index: 4, Err: errRoundTrip}, 6},
		{"no spec", errRoundTrip, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, be, blocks := peerRig(t)
			sp.SetRetryPolicy(retry.Policy{MaxAttempts: 2})
			be.fail = tc.fail
			_, err := sp.HandleAt(0, 2, "get").GetSequential("v", 0, region)
			var pe *PullError
			if !errors.As(err, &pe) || !errors.Is(err, errRoundTrip) {
				t.Fatalf("err = %v, want a *PullError wrapping the round-trip error", err)
			}
			first := tc.owner &^ 1 // each node's first core
			if pe.Owner != first || !pe.Sub.Equal(blocks[first]) || pe.Attempts != 2 {
				t.Fatalf("PullError names %v on core %d after %d attempts, want %v on core %d after 2",
					pe.Sub, pe.Owner, pe.Attempts, blocks[first], first)
			}
		})
	}
}
