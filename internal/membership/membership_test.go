package membership

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

func TestLedgerRecordsAndDiscards(t *testing.T) {
	l := NewLedger()
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4})
	data := make([]float64, region.Volume())
	l.RecordPut("rho", 0, region, 2, 7, data)
	l.RecordPut("rho", 0, region, 3, 7, data) // same region, different owner
	if l.Len() != 2 {
		t.Fatalf("ledger has %d blocks, want 2", l.Len())
	}
	// The ledger keeps the staging app.
	if got := l.Blocks()[0]; got.App != 7 {
		t.Fatalf("ledger lost the staging app (app %d)", got.App)
	}
	l.RecordDiscard("rho", 0, region, 3)
	if l.Len() != 1 {
		t.Fatalf("ledger has %d blocks after discard, want 1", l.Len())
	}
}

// TestLedgerKeepsThePutsSlice: the put hands its slice to the space, so the
// ledger records a 4 KiB block without copying it — a record allocates
// bytes for its key and region, never a second []float64 of the block.
func TestLedgerKeepsThePutsSlice(t *testing.T) {
	l := NewLedger()
	region := geometry.BoxFromSize([]int{32, 16})
	data := make([]float64, region.Volume())
	blockBytes := uint64(len(data) * cods.ElemSize)
	l.RecordPut("rho", 0, region, 2, 7, data) // the map entry exists from here on
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		l.RecordPut("rho", 0, region, 2, 7, data)
	}
	runtime.ReadMemStats(&after)
	if perRecord := (after.TotalAlloc - before.TotalAlloc) / runs; perRecord >= blockBytes {
		t.Fatalf("a record allocates %d B, at least the %d B block: the ledger copies it", perRecord, blockBytes)
	}
	if got := l.Blocks()[0].Data; &got[0] != &data[0] {
		t.Fatal("the ledger holds a copy of the put's slice")
	}
}

// stagedSpace builds a nodes x cores space over an 8x8 domain as a driver
// over one serving node per machine node (node.Cluster, the shape codsrun
// -backend=tcp deploys), installs a ledger and stages one block of variable
// "rho" (app 1) per given owner: the domain cut into as many column strips
// as owners, cell (x, y) holding 100*x + y.
func stagedSpace(t *testing.T, nodes, cores int, owners ...cluster.CoreID) (*cods.Space, *Ledger, []geometry.BBox, *node.Cluster) {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	domain := geometry.BoxFromSize([]int{8, 8})
	f := transport.NewFabric(m)
	c, err := node.NewCluster(f, domain, tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger()
	sp.SetPutRecorder(l)
	w := 8 / len(owners)
	regions := make([]geometry.BBox, len(owners))
	for i, owner := range owners {
		regions[i] = geometry.NewBBox(geometry.Point{i * w, 0}, geometry.Point{(i + 1) * w, 8})
		if err := sp.HandleAt(owner, 1, "stage").PutSequential("rho", 0, regions[i], cells(regions[i])); err != nil {
			t.Fatal(err)
		}
	}
	return sp, l, regions, c
}

func cells(region geometry.BBox) []float64 {
	var out []float64
	region.Each(func(p geometry.Point) { out = append(out, float64(100*p[0]+p[1])) })
	return out
}

// records counts the location records the DHT cores of an in-process space
// hold.
func records(sp *cods.Space) int {
	n := 0
	for node := 0; node < sp.Fabric().Machine().NumNodes(); node++ {
		n += sp.Lookup().TableSize(node)
	}
	return n
}

// served counts the location records the DHT cores of a cluster's serving
// nodes hold, each in its own node's space.
func served(c *node.Cluster, nodes int) int {
	n := 0
	for k := 0; k < nodes; k++ {
		n += c.Node(cluster.NodeID(k)).Space().Lookup().TableSize(k)
	}
	return n
}

// TestReconcileRestagesAffectedAndReinsertsRest loses node 1 of a 3x2
// cluster — two of the four staged blocks and a DHT table — with
// node.Cluster.Replace. The reconcile must re-stage the two lost blocks,
// re-register the survivors' records, and leave the space as it was: a
// reader's cached handle re-gets the whole domain cell-identically, with as
// many location records and ledger blocks as before the loss.
func TestReconcileRestagesAffectedAndReinsertsRest(t *testing.T) {
	// cores 0,1 on node 0; 2,3 on node 1; 4,5 on node 2: two owners on the
	// node to lose, two on a survivor.
	owners := []cluster.CoreID{2, 3, 4, 5}
	sp, l, regions, nodes := stagedSpace(t, 3, 2, owners...)
	blockBytes := regions[0].Volume() * cods.ElemSize
	domain := geometry.BoxFromSize([]int{8, 8})
	reader := sp.HandleAt(0, 2, "get")
	if _, err := reader.GetSequential("rho", 0, domain); err != nil {
		t.Fatal(err)
	}
	recsBefore, blocksBefore := served(nodes, 3), l.Len()
	if nodes.Node(1).Space().Lookup().TableSize(1) == 0 {
		t.Fatal("node 1's table is empty before the loss: the test would prove nothing about re-registration")
	}

	lost, err := nodes.Replace(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := lost.Space().Lookup().TableSize(1); n != 0 {
		t.Fatalf("node 1 holds %d records after its replacement", n)
	}
	res, err := Reconcile(sp, l, []cluster.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestagedCount != 2 || res.MigratedBytes != 2*blockBytes || res.Reinserted != 2 {
		t.Fatalf("result %+v, want 2 blocks / %d bytes re-staged and 2 records re-registered", res, 2*blockBytes)
	}
	misses := reader.CacheMisses
	got, err := reader.GetSequential("rho", 0, domain)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, cells(domain)) {
		t.Fatal("the re-get through the cached handle differs from the staged cells")
	}
	if reader.CacheMisses != misses+1 {
		t.Fatal("the reader's cached schedule survived the reconcile")
	}
	if now := served(nodes, 3); now != recsBefore || l.Len() != blocksBefore {
		t.Fatalf("%d location records and %d ledger blocks after the reconcile, %d and %d before the loss",
			now, l.Len(), recsBefore, blocksBefore)
	}
}

// failingExpose is a driver whose every expose fails, the way one over a
// dropped connection would.
type failingExpose struct{ transport.Backend }

var errExpose = errors.New("failingExpose: connection reset")

func (failingExpose) Expose(cluster.CoreID, transport.BufKey, any) error { return errExpose }

// TestReconcileStopsOnRestageFailure: a re-stage whose expose fails stops
// the pass with the put's error.
func TestReconcileStopsOnRestageFailure(t *testing.T) {
	sp, l, _, nodes := stagedSpace(t, 2, 1, 1) // owner core 1 → node 1
	sp.Fabric().SetBackend(failingExpose{nodes.Driver()})
	res, err := Reconcile(sp, l, []cluster.NodeID{1})
	if !errors.Is(err, errExpose) {
		t.Fatalf("got %v, want the re-stage's expose failure", err)
	}
	if res.RestagedCount != 0 {
		t.Fatalf("result %+v counts a block that was not re-staged", res)
	}
}

// TestGetSequentialRidesOutNodeLoss: between a replacement coming up and
// the reconcile re-registering records its DHT table is empty, so a
// consumer's lookup comes back short for data that is alive. Under a retry
// policy the get must wait that window out instead of failing at once with
// "the stored pieces found (0) do not tile the 32 cells".
func TestGetSequentialRidesOutNodeLoss(t *testing.T) {
	// Both blocks live on node 0; the record of the second is kept by node
	// 1's DHT core alone.
	sp, l, regions, nodes := stagedSpace(t, 2, 2, 0, 1)
	region := regions[1]
	if a, b := nodes.Node(0).Space().Lookup().TableSize(0), nodes.Node(1).Space().Lookup().TableSize(1); a != 1 || b != 1 {
		t.Fatalf("tables hold %d and %d records, want one block's record each", a, b)
	}
	// 50 attempts at most 50 ms apart: over two seconds of patience, which
	// only a stalled reconcile outlasts, however loaded the host.
	sp.SetRetryPolicy(retry.Policy{MaxAttempts: 50, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond})
	lost, err := nodes.Replace(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Lookup().ClientAt(0).Query("check", 2, "rho", 0, region); err != nil {
		t.Fatal(err)
	}
	if n := lost.Space().Lookup().TableSize(1); n != 0 {
		t.Fatalf("node 1 holds %d records after its replacement", n)
	}
	done := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		_, err := Reconcile(sp, l, []cluster.NodeID{1})
		done <- err
	}()
	got, err := sp.HandleAt(3, 2, "get").GetSequential("rho", 0, region)
	if err != nil {
		t.Fatalf("get across the node loss: %v", err)
	}
	if !slices.Equal(got, cells(region)) {
		t.Fatal("the get across the node loss differs from the staged cells")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// lossBackend carries every operation over a wire that node 1's loss cuts:
// the fabric it embeds executes what gets through, the first expose after
// crashOnExpose is set lands and then loses its acknowledgement as the node
// goes down, and every operation on node 1 fails from then on, with an
// error marked transient as a wire marks a reset, until the test brings the
// replacement up.
type lossBackend struct {
	*transport.Fabric
	crashOnExpose atomic.Bool
	down          atomic.Bool
	failed        atomic.Int32
}

var errCut = transport.Transient(errors.New("lossBackend: connection reset"))

// cut fails an operation on target's state while node 1 is down.
func (b *lossBackend) cut(target cluster.CoreID) error {
	if b.Machine().NodeOf(target) == 1 && b.down.Load() {
		b.failed.Add(1)
		return errCut
	}
	return nil
}

func (b *lossBackend) ReadMulti(reader cluster.CoreID, specs []transport.ReadSpec, m transport.Meter, deliver transport.SegmentFunc) error {
	if err := b.cut(specs[0].Owner); err != nil {
		return err
	}
	return b.Fabric.ReadMulti(reader, specs, m, deliver)
}

func (b *lossBackend) Call(src, dst cluster.CoreID, service string, request any, m transport.Meter, reqBytes, respBytes int64) (any, error) {
	if err := b.cut(dst); err != nil {
		return nil, err
	}
	return b.Fabric.Call(src, dst, service, request, m, reqBytes, respBytes)
}

func (b *lossBackend) Expose(owner cluster.CoreID, key transport.BufKey, payload any) error {
	if err := b.cut(owner); err != nil {
		return err
	}
	err := b.Fabric.Expose(owner, key, payload)
	if b.crashOnExpose.CompareAndSwap(true, false) {
		b.down.Store(true)
		b.failed.Add(1)
		return errCut
	}
	return err
}

func (b *lossBackend) Unexpose(owner cluster.CoreID, key transport.BufKey) error {
	if err := b.cut(owner); err != nil {
		return err
	}
	return b.Fabric.Unexpose(owner, key)
}

// TestPutSequentialRidesOutNodeLoss: the owner of a put is lost mid-put —
// its expose lands, the node goes down before acknowledging it, and the
// put's next attempts fail against the dead node. Under a retry policy the
// put must wait out the replacement and the reconcile running beside it,
// and leave the block staged exactly once: one location record, one ledger
// block, the block exposed, and a get that returns its cells.
func TestPutSequentialRidesOutNodeLoss(t *testing.T) {
	m, err := cluster.NewMachine(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := cods.NewSpace(transport.NewFabric(m), geometry.BoxFromSize([]int{8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger()
	sp.SetPutRecorder(l)
	be := &lossBackend{Fabric: sp.Fabric()}
	sp.Fabric().SetBackend(be)
	// 50 attempts at most 50 ms apart: over two seconds of patience, which
	// only a stalled reconcile outlasts, however loaded the host.
	sp.SetRetryPolicy(retry.Policy{MaxAttempts: 50, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond})
	region := geometry.NewBBox(geometry.Point{4, 0}, geometry.Point{8, 8})
	const owner = cluster.CoreID(2) // node 1

	be.crashOnExpose.Store(true)
	done := make(chan error, 1)
	go func() {
		// The replacement comes up once the put has failed against the lost
		// node at least twice: the lost acknowledgement, then a re-attempt.
		for be.failed.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		be.down.Store(false)
		_, err := Reconcile(sp, l, []cluster.NodeID{1})
		done <- err
	}()
	if err := sp.HandleAt(owner, 1, "put").PutSequential("rho", 0, region, cells(region)); err != nil {
		t.Fatalf("put across the node loss: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	exposed := sp.Fabric().Exposed(owner, transport.BufKey{Name: "rho|" + region.String()})
	if n, blocks := records(sp), l.Len(); n != 1 || blocks != 1 || !exposed {
		t.Fatalf("%d location records, %d ledger blocks and exposed=%v after the put; want 1, 1 and true",
			n, blocks, exposed)
	}
	got, err := sp.HandleAt(0, 2, "get").GetSequential("rho", 0, region)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, cells(region)) {
		t.Fatal("the get after the node loss differs from the put's cells")
	}
}

// TestConcurrentCouplingFailsOnProducerLoss: a concurrent coupling has no
// put ledger, so nothing re-stages what a lost producer node exposed. A
// producer exposes its block from a core of node 1 and the node is
// replaced; a consumer's get under a 2-attempt policy, with 100 ms of read
// patience set on the driver alone, then fails cleanly — a *cods.PullError
// naming the lost owner and wrapping transport.ErrReadPatience, within a
// bound — and leaves no read parked on the replacement.
func TestConcurrentCouplingFailsOnProducerLoss(t *testing.T) {
	m, err := cluster.NewMachine(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	domain := geometry.BoxFromSize([]int{8, 8})
	f := transport.NewFabric(m)
	c, err := node.NewCluster(f, domain, tcpnet.Config{ReadPatience: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := decomp.New(decomp.Blocked, domain, []int{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const producer = cluster.CoreID(2) // node 1
	info := cods.ProducerInfo{Decomp: dc, CoreOf: func(int) cluster.CoreID { return producer }}
	if err := sp.HandleAt(producer, 1, "put").PutConcurrent("rho", 0, domain, cells(domain)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replace(1); err != nil {
		t.Fatal(err)
	}

	sp.SetRetryPolicy(retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := sp.HandleAt(0, 2, "get").GetConcurrent(info, "rho", 0, domain)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the get still waits on the lost producer after 10 s")
	}
	var pe *cods.PullError
	if !errors.As(err, &pe) || pe.Owner != producer || pe.Attempts != 2 || !errors.Is(err, transport.ErrReadPatience) {
		t.Fatalf("err = %v, want a *cods.PullError from core %d after 2 attempts wrapping transport.ErrReadPatience", err, producer)
	}
	if n := parkedReads(); n != 0 {
		t.Fatalf("%d reads still parked after the get failed, want 0", n)
	}
}

// parkedReads counts the goroutines of this process inside a serving
// node's deferred read (transport.Fabric.Read).
func parkedReads() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("transport.(*Fabric).Read("))
}
