package cods

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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

// fakeBackend is a transport.Backend that executes every operation on the
// fabric's own Local* side, standing in for a wire: the first failures
// buffer-state round trips (Exposed/Unexpose), the first exposeFailures
// exposes and the first callFailures RPCs fail the way a dropped connection
// would, and the first lostAcks exposes that get through land and then
// fail, the way a lost acknowledgement would.
type fakeBackend struct {
	f              *transport.Fabric
	failures       atomic.Int32
	exposeFailures atomic.Int32
	callFailures   atomic.Int32
	lostAcks       atomic.Int32
}

var errRoundTrip = errors.New("fake backend: connection reset")

func (b *fakeBackend) roundTrip() error {
	if b.failures.Add(-1) >= 0 {
		return errRoundTrip
	}
	return nil
}

func (b *fakeBackend) Close() error { return nil }

func (b *fakeBackend) ReadMulti(reader cluster.CoreID, specs []transport.ReadSpec, m transport.Meter, deliver transport.SegmentFunc) error {
	return b.f.LocalReadMulti(reader, specs, m, deliver)
}

func (b *fakeBackend) Call(src, dst cluster.CoreID, service string, request any, m transport.Meter, reqBytes, respBytes int64) (any, error) {
	if b.callFailures.Add(-1) >= 0 {
		return nil, errRoundTrip
	}
	return b.f.LocalCall(src, dst, service, request, m, reqBytes, respBytes)
}

func (b *fakeBackend) Expose(owner cluster.CoreID, key transport.BufKey, payload any) error {
	if b.exposeFailures.Add(-1) >= 0 {
		return errRoundTrip
	}
	err := b.f.LocalExpose(owner, key, payload)
	if b.lostAcks.Add(-1) >= 0 {
		return errRoundTrip
	}
	return err
}

func (b *fakeBackend) Unexpose(owner cluster.CoreID, key transport.BufKey) error {
	if err := b.roundTrip(); err != nil {
		return err
	}
	b.f.LocalUnexpose(owner, key)
	return nil
}

func (b *fakeBackend) Exposed(owner cluster.CoreID, key transport.BufKey) (bool, error) {
	if err := b.roundTrip(); err != nil {
		return false, err
	}
	return b.f.LocalExposed(owner, key)
}

// TestDiscardSurvivesFailedRoundTrip: when the first buffer-state round
// trip of a discard fails, the error must surface and the block stay
// exposed, and the retried discard must withdraw it.
func TestDiscardSurvivesFailedRoundTrip(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8, 8})
	be := &fakeBackend{f: sp.Fabric()}
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
	if ok, _ := sp.Fabric().LocalExposed(0, bufKey("v", blk, 0)); !ok {
		t.Fatal("the block was withdrawn by a discard that failed")
	}
	if err := h.DiscardSequential("v", 0, blk); err != nil {
		t.Fatalf("retried discard: %v", err)
	}
	if ok, _ := sp.Fabric().LocalExposed(0, bufKey("v", blk, 0)); ok {
		t.Fatal("the block is still exposed after the retried discard")
	}
	if err := h.PutSequential("v", 1, blk, fillRegion(blk)); err != nil {
		t.Fatalf("put after retried discard: %v", err)
	}
}

// putLog is a PutRecorder counting the blocks currently on record.
type putLog struct{ live atomic.Int32 }

func (l *putLog) RecordPut(string, int, geometry.BBox, cluster.CoreID, int, []float64) {
	l.live.Add(1)
}
func (l *putLog) RecordDiscard(string, int, geometry.BBox, cluster.CoreID) { l.live.Add(-1) }

// TestPutSequentialUndoesFailedInsert is the regression test for the
// leaked put: when the lookup registration of a staged block fails, the
// block must not stay exposed and on the put ledger — the error surfaces,
// and the retried put succeeds instead of failing with "already exposed".
func TestPutSequentialUndoesFailedInsert(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8, 8})
	be := &fakeBackend{f: sp.Fabric()}
	sp.Fabric().SetBackend(be)
	ledger := &putLog{}
	sp.SetPutRecorder(ledger)
	blk := geometry.BoxFromSize([]int{8, 8})
	h := sp.HandleAt(0, 1, "p")

	be.callFailures.Store(1)
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); !errors.Is(err, errRoundTrip) {
		t.Fatalf("put over a failing insert: err = %v, want the round-trip error", err)
	}
	if ok, err := be.Exposed(0, bufKey("v", blk, 0)); err != nil || ok {
		t.Fatalf("block still exposed after the failed put (exposed=%v, err=%v)", ok, err)
	}
	if got := ledger.live.Load(); got != 0 {
		t.Fatalf("put ledger holds %d records after the failed put, want 0", got)
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

// TestPutSequentialRetriesFailedExpose: under a retry policy a put whose
// expose fails three times is staged by its fourth attempt — one exposure,
// one location record, the block on the put ledger, and each re-attempt counted in cods.put.retries and traced as a
// retry:put:<var> event. With the policy disabled the first failure is
// returned and nothing is left behind.
func TestPutSequentialRetriesFailedExpose(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	const failures = 3
	for _, pol := range []retry.Policy{{}, fastPolicy(failures + 1)} {
		_, sp := testRig(t, 1, 2, []int{8, 8})
		be := &fakeBackend{f: sp.Fabric()}
		sp.Fabric().SetBackend(be)
		ledger := &putLog{}
		sp.SetPutRecorder(ledger)
		sp.SetRetryPolicy(pol)
		var spans bytes.Buffer
		tr := obs.NewTracer(&spans)
		sp.SetTracer(tr)
		blk := geometry.BoxFromSize([]int{8, 8})
		retries := obs.C("cods.put.retries")
		before := retries.Value()

		be.exposeFailures.Store(failures)
		err := sp.HandleAt(0, 1, "p").PutSequential("v", 0, blk, fillRegion(blk))
		exposed, xerr := be.Exposed(0, bufKey("v", blk, 0))
		if xerr != nil {
			t.Fatal(xerr)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		state := fmt.Sprintf("exposed=%v, %d records, %d on the ledger, %d retries, %d events",
			exposed, sp.Lookup().TableSize(0), ledger.live.Load(),
			retries.Value()-before, strings.Count(spans.String(), `"retry:put:v"`))
		if !pol.Enabled() {
			if !errors.Is(err, errRoundTrip) || state != "exposed=false, 0 records, 0 on the ledger, 0 retries, 0 events" {
				t.Fatalf("without a policy: err = %v, %s; want the expose's error and nothing left", err, state)
			}
			continue
		}
		if err != nil {
			t.Fatalf("put over %d failed exposes: %v", failures, err)
		}
		want := fmt.Sprintf("exposed=true, 1 records, 1 on the ledger, %d retries, %d events",
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
// B fails once and is re-attempted. Whether B's expose landed and lost its
// acknowledgement, or its registration and then its withdrawal failed, the
// re-attempt must leave B staged once: exposed, with one location record,
// and readable.
func TestRetriedPutReservesOnce(t *testing.T) {
	a := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 8})
	b := geometry.NewBBox(geometry.Point{4, 0}, geometry.Point{8, 8})
	for _, tc := range []struct {
		name string
		fail func(be *fakeBackend)
	}{
		{"lost expose acknowledgement", func(be *fakeBackend) { be.lostAcks.Store(1) }},
		{"failed insert, then failed withdrawal", func(be *fakeBackend) {
			be.callFailures.Store(2) // both attempts of the DHT client's own retry
			be.failures.Store(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, sp := testRig(t, 1, 2, []int{8, 8})
			be := &fakeBackend{f: sp.Fabric()}
			sp.Fabric().SetBackend(be)
			sp.SetRetryPolicy(fastPolicy(2))
			h := sp.HandleAt(0, 1, "p")
			if err := h.PutSequential("v", 0, a, fillRegion(a)); err != nil {
				t.Fatal(err)
			}
			tc.fail(be)
			if err := h.PutSequential("v", 0, b, fillRegion(b)); err != nil {
				t.Fatalf("re-attempted put: %v", err)
			}
			if ok, _ := sp.Fabric().LocalExposed(0, bufKey("v", b, 0)); !ok {
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
// retirement error: when the withdrawal of a retired stream block fails,
// the stream still moves on (no retry, the advance succeeds), but the
// failure is counted in cods.stream.retire_errors and traced as a
// retire-failed:<var> event instead of vanishing.
func TestRetireCountsFailedDiscard(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	_, sp := testRig(t, 1, 2, []int{8})
	be := &fakeBackend{f: sp.Fabric()}
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
	errs := obs.C("cods.stream.retire_errors")
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

// TestPartitionPulls pins the batch shape of the pull engine: on a driver's
// fabric the transfers form exactly one batch per owning node, in process
// every transfer is a batch of its own, schedule order survives inside
// every batch, and every spec of a batch reads the get's version while the
// schedule it came from stays versionless.
func TestPartitionPulls(t *testing.T) {
	// 4 nodes x 2 cores; the puller sits on core 0 (node 0).
	for _, tc := range []struct {
		name    string
		inproc  bool
		owners  []cluster.CoreID
		singles int
		batches int
	}{
		{name: "empty schedule"},
		{name: "one remote node", owners: []cluster.CoreID{2, 3, 2}, batches: 1},
		{name: "interleaved", owners: []cluster.CoreID{0, 2, 4, 1, 3, 6, 5, 0, 7}, batches: 4},
		{name: "no backend routes nothing", inproc: true, owners: []cluster.CoreID{0, 2, 4, 6, 7}, singles: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, sp := testRig(t, 4, 2, []int{16})
			if !tc.inproc {
				sp.Fabric().SetBackend(&fakeBackend{f: sp.Fabric()})
			}
			sched := make([]transport.ReadSpec, len(tc.owners))
			for i, o := range tc.owners {
				sub := geometry.NewBBox(geometry.Point{i}, geometry.Point{i + 1})
				sched[i] = readSpec(o, "v", sub, sub)
			}
			const version = 7
			items := sp.HandleAt(0, 2, "get").partitionPulls(sched, version)
			for _, spec := range sched {
				if spec.Key.Version != 0 {
					t.Fatalf("partitioning stamped version %d on the cached schedule", spec.Key.Version)
				}
			}

			singles, batches := 0, 0
			seen := make(map[int]bool)
			nodes := make(map[cluster.NodeID]bool)
			for _, item := range items {
				if len(item) == 0 {
					t.Fatal("empty work item")
				}
				routed := !tc.inproc
				if !routed {
					singles++
					if len(item) != 1 {
						t.Fatalf("unrouted item carries %d transfers, want 1", len(item))
					}
				} else {
					batches++
					node := m.NodeOf(item[0].Owner)
					if nodes[node] {
						t.Fatalf("node %d got a second batch", node)
					}
					nodes[node] = true
				}
				last := -1
				for _, tr := range item {
					pos := tr.Sub.Min[0]
					if routed && m.NodeOf(tr.Owner) != m.NodeOf(item[0].Owner) {
						t.Fatalf("batch mixes nodes %d and %d", m.NodeOf(item[0].Owner), m.NodeOf(tr.Owner))
					}
					if pos <= last {
						t.Fatalf("schedule order broken inside an item: position %d after %d", pos, last)
					}
					if seen[pos] {
						t.Fatalf("transfer %d scheduled twice", pos)
					}
					if tr.Key.Version != version {
						t.Fatalf("transfer %d reads version %d, want the get's %d", pos, tr.Key.Version, version)
					}
					seen[pos], last = true, pos
				}
			}
			if singles != tc.singles || batches != tc.batches {
				t.Fatalf("got %d single-spec items + %d batches, want %d + %d", singles, batches, tc.singles, tc.batches)
			}
			if len(seen) != len(sched) {
				t.Fatalf("%d of %d transfers scheduled", len(seen), len(sched))
			}
		})
	}
}

// peerBackend is a fakeBackend over a 4-node x 2-core machine that makes
// ReadMulti observable and steerable per owning node: it counts the calls and the most that were
// ever in flight together, runs hold (when set) with the owning node
// before serving, fails the nodes in fail with errRoundTrip, and closes
// returned[node] when that node's call has returned.
type peerBackend struct {
	fakeBackend
	m                  *cluster.Machine
	reads, maxInFlight atomic.Int32
	inFlight           atomic.Int32
	hold               func(node cluster.NodeID)
	fail               map[cluster.NodeID]bool
	returned           map[cluster.NodeID]chan struct{}
}

func (b *peerBackend) ReadMulti(reader cluster.CoreID, specs []transport.ReadSpec, m transport.Meter, deliver transport.SegmentFunc) error {
	node := b.m.NodeOf(specs[0].Owner)
	b.reads.Add(1)
	n := b.inFlight.Add(1)
	for prev := b.maxInFlight.Load(); n > prev && !b.maxInFlight.CompareAndSwap(prev, n); {
		prev = b.maxInFlight.Load()
	}
	defer close(b.returned[node])
	defer b.inFlight.Add(-1)
	if b.hold != nil {
		b.hold(node)
	}
	if b.fail[node] {
		return errRoundTrip
	}
	return b.f.LocalReadMulti(reader, specs, m, deliver)
}

// peerRig stages a 32-cell variable as eight 4-cell blocks, block i on
// core i, behind a peerBackend: each node owns two blocks, and nodes 1-3
// own the cells [8, 32) — three peers of a reader on core 0.
func peerRig(t *testing.T) (*Space, *peerBackend, []geometry.BBox) {
	t.Helper()
	m, sp := testRig(t, 4, 2, []int{32})
	be := &peerBackend{m: m, returned: make(map[cluster.NodeID]chan struct{})}
	be.f = sp.Fabric()
	for n := 0; n < m.NumNodes(); n++ {
		be.returned[cluster.NodeID(n)] = make(chan struct{})
	}
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

// awaitOr waits for ch, failing the test after 10 s: a pull executor that
// serialises what these tests expect overlapped would otherwise hang.
func awaitOr(t *testing.T, ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Errorf("timed out waiting for %s", what)
	}
}

// spawnedByPull counts the live goroutines Handle.pull started, read off
// the "created by" line of every goroutine's stack: unlike a difference of
// runtime.NumGoroutine samples it ignores the RPC handler goroutines of
// earlier puts that are still winding down.
func spawnedByPull() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by github.com/insitu/cods/internal/cods.(*Handle).pull in goroutine"))
}

// TestPullOverlapsRemotePeers: a get whose blocks sit on three nodes has
// all three ReadMulti calls in flight together, on two goroutines beyond
// the caller's.
func TestPullOverlapsRemotePeers(t *testing.T) {
	sp, be, _ := peerRig(t)
	var arrived sync.WaitGroup
	arrived.Add(3)
	all := make(chan struct{})
	var spawned int
	go func() {
		arrived.Wait()
		spawned = spawnedByPull()
		close(all)
	}()
	be.hold = func(cluster.NodeID) {
		arrived.Done()
		awaitOr(t, all, "three overlapped ReadMulti calls")
	}
	region := geometry.NewBBox(geometry.Point{8}, geometry.Point{32})
	out, err := sp.HandleAt(0, 2, "get").GetSequential("v", 0, region)
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, region, out)
	if got := be.reads.Load(); got != 3 {
		t.Fatalf("%d ReadMulti calls, want one per owning node = 3", got)
	}
	if got := be.maxInFlight.Load(); got != 3 {
		t.Fatalf("at most %d ReadMulti calls in flight together, want 3", got)
	}
	if spawned != 2 {
		t.Fatalf("get spawned %d goroutines, want owning nodes - 1 = 2", spawned)
	}
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

// TestPullFirstErrorByBatchIndex: when the batches of nodes 2 and 3 of a
// get of [8, 32) both fail — node 3's first — the get reports node 2's, the
// lower-indexed batch, as a *PullError naming that batch's first sub-box,
// and only after every batch (node 1's succeeds last) has finished.
func TestPullFirstErrorByBatchIndex(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		sp, be, blocks := peerRig(t)
		be.fail = map[cluster.NodeID]bool{2: true, 3: true}
		be.hold = func(node cluster.NodeID) {
			if node < 3 {
				awaitOr(t, be.returned[node+1], "the next peer's ReadMulti to return")
			}
		}
		_, err := sp.HandleAt(0, 2, "get").GetSequential("v", 0, geometry.NewBBox(geometry.Point{8}, geometry.Point{32}))
		var pe *PullError
		if !errors.As(err, &pe) || !errors.Is(err, errRoundTrip) {
			t.Fatalf("rep %d: err = %v, want a *PullError wrapping the round-trip error", rep, err)
		}
		if pe.Owner != 4 || !pe.Sub.Equal(blocks[4]) {
			t.Fatalf("rep %d: PullError names %v on core %d, want node 2's first sub-box %v on core 4", rep, pe.Sub, pe.Owner, blocks[4])
		}
		if reads, inFlight := be.reads.Load(), be.inFlight.Load(); reads != 3 || inFlight != 0 {
			t.Fatalf("rep %d: get returned with %d of %d ReadMulti calls still in flight, want 0 of 3", rep, inFlight, reads)
		}
	}
}
