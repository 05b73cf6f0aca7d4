package tcpnet

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// The fan-out of one ReadMulti across owning nodes: every request written
// before any answer is read, answers of at most maxPooledBuf requested
// bytes read on the calling goroutine, larger ones beyond the first on
// goroutines of their own.

const (
	smallSide = 16   // 16² float64 = 2 KiB: a seq-lookup-tcp segment
	bigSide   = 96   // 96² float64 = 72 KiB: above maxPooledBuf alone
	hugeSide  = 1024 // 1024² float64 = 8 MiB: more than loopback socket buffers hold
)

// fanoutBlock exposes, through the driver, a side² block of "u" on owner
// (the block's index k places it apart from every other) and returns the
// spec reading it whole.
func fanoutBlock(t *testing.T, f *transport.Fabric, owner cluster.CoreID, k, side int) transport.ReadSpec {
	t.Helper()
	region := geometry.NewBBox(geometry.Point{k * bigSide, 0}, geometry.Point{k*bigSide + side, side})
	key := transport.BufKey{Name: "u|" + region.String(), Version: 1}
	if err := f.Endpoint(owner).Expose(key, &cods.StoredObject{Region: region, Data: fillCells(region)}); err != nil {
		t.Fatal(err)
	}
	return transport.ReadSpec{Owner: owner, Key: key, Sub: region, Bytes: region.Volume() * cods.ElemSize}
}

// spawnedByReadMulti counts the live goroutines Backend.ReadMulti started,
// read off the "created by" line of every goroutine's stack.
func spawnedByReadMulti() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by github.com/insitu/cods/internal/transport/tcpnet.(*Backend).ReadMulti"))
}

// checkSegment holds a delivered segment to the cells of its spec.
func checkSegment(spec transport.ReadSpec, clipped []byte) error {
	want, err := (&cods.StoredObject{Region: spec.Sub, Data: fillCells(spec.Sub)}).ClipRegion(nil, spec.Sub)
	if err != nil {
		return err
	}
	if !bytes.Equal(clipped, want) {
		return errors.New("segment bytes differ from the owner's cells")
	}
	return nil
}

// TestReadMultiFanOut: one ReadMulti whose specs sit on two and on three
// nodes — each node's specs one run, or a node's specs split into two runs
// around another's — delivers every spec exactly once, at its own index
// and with its own cells, and sends one request frame per run.
func TestReadMultiFanOut(t *testing.T) {
	for _, tc := range []struct {
		name   string
		owners []cluster.CoreID // on a 4x2 machine: core c sits on node c/2
		runs   int64
	}{
		{"two nodes", []cluster.CoreID{2, 3, 4}, 2},
		{"three nodes", []cluster.CoreID{2, 3, 4, 5, 6, 7}, 3},
		{"a node split around another", []cluster.CoreID{2, 6, 6, 3}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, b, _ := newCluster(t, 4, 2)
			specs := make([]transport.ReadSpec, len(tc.owners))
			for i, owner := range tc.owners {
				specs[i] = fanoutBlock(t, f, owner, i, smallSide)
			}
			before := b.WireStats().ReadMultiRequests
			var mu sync.Mutex
			got := make([]int, len(specs))
			err := f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, payload any, clipped []byte) error {
				mu.Lock()
				got[i]++
				mu.Unlock()
				return checkSegment(specs[i], clipped)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range got {
				if n != 1 {
					t.Errorf("spec %d delivered %d times, want once", i, n)
				}
			}
			if n := b.WireStats().ReadMultiRequests - before; n != tc.runs {
				t.Errorf("%d request frames, want one per run = %d", n, tc.runs)
			}
		})
	}
}

// exposeLater exposes spec's buffer on owner once ready is closed (or
// after 10 s), reporting the expose's error on the returned channel.
func exposeLater(f *transport.Fabric, spec transport.ReadSpec, ready <-chan struct{}) <-chan error {
	errc := make(chan error, 1)
	go func() {
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
		}
		errc <- f.Endpoint(spec.Owner).Expose(spec.Key, &cods.StoredObject{Region: spec.Sub, Data: fillCells(spec.Sub)})
	}()
	return errc
}

// TestReadMultiWritesEveryRequestFirst: node 2's request is on the wire
// while node 1's answer is still pending — node 1's buffer is exposed only
// once node 2's server has served its segment — so a fan-out that sent and
// read one run at a time would stall until the wait below gave up.
func TestReadMultiWritesEveryRequestFirst(t *testing.T) {
	f, _, servers := newCluster(t, 3, 1)
	specs := []transport.ReadSpec{fanoutBlock(t, f, 1, 0, smallSide), fanoutBlock(t, f, 2, 1, smallSide)}
	if err := f.Endpoint(1).Unexpose(specs[0].Key); err != nil {
		t.Fatal(err)
	}
	served := servers[2].WireStats().SegmentsServed
	ready := make(chan struct{})
	sentFirst := make(chan bool, 1)
	go func() {
		defer close(ready)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if servers[2].WireStats().SegmentsServed > served {
				sentFirst <- true
				return
			}
		}
		sentFirst <- false
	}()
	exposed := exposeLater(f, specs[0], ready)
	err := f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, clipped []byte) error {
		return checkSegment(specs[i], clipped)
	})
	if err := <-exposed; err != nil {
		t.Fatal(err)
	}
	if !<-sentFirst {
		t.Fatal("node 2's request was not sent while node 1's answer was pending")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadMultiSmallAnswerDoesNotStallBigOne: a small answer whose
// producer exposes its buffer only once the 8 MiB answer behind it has
// reached the caller's callback does not stall the call. The caller reads
// the big answer first, so its server's write, which the socket buffers
// cannot absorb, never waits on the small answer's producer. Read in index
// order, the two would wait on each other until the big answer's server
// gave up its write at the I/O timeout and the call failed. The timeout is
// the production one: no correct read order comes near it, however loaded
// the host.
func TestReadMultiSmallAnswerDoesNotStallBigOne(t *testing.T) {
	f, _, _ := newCluster(t, 3, 1)
	specs := []transport.ReadSpec{fanoutBlock(t, f, 1, 0, smallSide), fanoutBlock(t, f, 2, 1, hugeSide)}
	if err := f.Endpoint(1).Unexpose(specs[0].Key); err != nil {
		t.Fatal(err)
	}
	ready := make(chan struct{})
	var release sync.Once
	exposed := exposeLater(f, specs[0], ready)
	err := f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, clipped []byte) error {
		if i == 1 {
			release.Do(func() { close(ready) }) // the big answer arrived
		}
		return checkSegment(specs[i], clipped)
	})
	if err := <-exposed; err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatalf("the get failed while its small answer waited on its producer: %v", err)
	}
}

// TestReadMultiSmallAnswersSpawnNothing: answers of at most maxPooledBuf
// requested bytes are read on the calling goroutine, and so is the first
// big answer — sampled inside every delivery, where a segment read on a
// spawned goroutine would count itself.
func TestReadMultiSmallAnswersSpawnNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sides []int // the block on core 2+2i, one per node
	}{
		{"three small", []int{smallSide, smallSide, smallSide}},
		{"one big among small", []int{smallSide, bigSide, smallSide}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _, _ := newCluster(t, 4, 2)
			var specs []transport.ReadSpec
			for i, side := range tc.sides {
				specs = append(specs, fanoutBlock(t, f, cluster.CoreID(2+2*i), i, side))
			}
			spawned := 0
			err := f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, clipped []byte) error {
				spawned = max(spawned, spawnedByReadMulti())
				return checkSegment(specs[i], clipped)
			})
			if err != nil {
				t.Fatal(err)
			}
			if spawned != 0 {
				t.Fatalf("ReadMulti spawned %d goroutines, want 0", spawned)
			}
		})
	}
}

// TestReadMultiOverlapsBigAnswers: two answers above maxPooledBuf are read
// at the same time — each delivery waits for the other node's to begin, so
// a fan-out that read one answer after the other would stall — and the
// second of them on the one goroutine ReadMulti spawns.
func TestReadMultiOverlapsBigAnswers(t *testing.T) {
	f, _, _ := newCluster(t, 3, 1)
	specs := []transport.ReadSpec{fanoutBlock(t, f, 1, 0, bigSide), fanoutBlock(t, f, 2, 1, bigSide)}
	var arrived sync.WaitGroup
	arrived.Add(len(specs))
	both := make(chan struct{})
	go func() {
		arrived.Wait()
		close(both)
	}()
	spawned := make([]int, len(specs))
	err := f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, clipped []byte) error {
		// Sampled before either delivery is released: afterwards the
		// spawned goroutine may finish before the caller samples.
		spawned[i] = spawnedByReadMulti()
		arrived.Done()
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			return errors.New("the other big answer was not read while this one was held")
		}
		return checkSegment(specs[i], clipped)
	})
	if err != nil {
		t.Fatal(err)
	}
	if spawned[0] != 1 || spawned[1] != 1 {
		t.Fatalf("ReadMulti had %v goroutines of its own while the answers were held, want 1", spawned)
	}
}

// TestReadMultiNodeFailsMidAnswer: node 2 answers its first segment and
// then fails the second (a buffer never exposed, bounced after the driver's
// ReadPatience). The call fails with node 2's own error, attributed
// to node 2's first spec; node 1's connection, read to its end, is pooled;
// node 2's and node 3's — whose answer was never read — are closed, not
// pooled; and the next call, once the buffer is exposed, succeeds on fresh
// dials.
func TestReadMultiNodeFailsMidAnswer(t *testing.T) {
	f, b, _ := newCluster(t, 4, 1)
	b.cfg.ReadPatience = 50 * time.Millisecond
	specs := []transport.ReadSpec{
		fanoutBlock(t, f, 1, 0, smallSide),
		fanoutBlock(t, f, 2, 1, smallSide),
		fanoutBlock(t, f, 2, 2, smallSide),
		fanoutBlock(t, f, 3, 3, smallSide),
	}
	missing := specs[2]
	if err := f.Endpoint(2).Unexpose(missing.Key); err != nil {
		t.Fatal(err)
	}
	read := func() (delivered []int, err error) {
		var mu sync.Mutex
		err = f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, clipped []byte) error {
			mu.Lock()
			delivered = append(delivered, i)
			mu.Unlock()
			return checkSegment(specs[i], clipped)
		})
		return delivered, err
	}
	delivered, err := read()
	var se *transport.SpecError
	if !errors.As(err, &se) || se.Index != 1 || !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("err = %v, want node 2's error attributed to its first spec, index 1", err)
	}
	if len(delivered) != 2 || delivered[0] != 0 || delivered[1] != 1 {
		t.Fatalf("delivered specs %v before the failure, want node 1's and node 2's first: [0 1]", delivered)
	}
	kept := pooled(b, 1)
	if len(kept) != 1 || kept[0].r.Buffered() != 0 {
		t.Fatalf("node 1's answer was read to its end: want its one connection pooled with nothing buffered, got %d", len(kept))
	}
	for _, node := range []cluster.NodeID{2, 3} {
		if n := len(pooled(b, node)); n != 0 {
			t.Fatalf("%d connections to node %d pooled after its answer went unfinished, want 0", n, node)
		}
	}

	if err := f.Endpoint(2).Expose(missing.Key, &cods.StoredObject{Region: missing.Sub, Data: fillCells(missing.Sub)}); err != nil {
		t.Fatal(err)
	}
	if delivered, err := read(); err != nil || len(delivered) != len(specs) {
		t.Fatalf("the next call delivered %d of %d specs: %v", len(delivered), len(specs), err)
	}
	if now := pooled(b, 1); len(now) != 1 || now[0] != kept[0] {
		t.Fatal("the next call did not reuse node 1's pooled connection")
	}
	for _, node := range []cluster.NodeID{2, 3} {
		if n := len(pooled(b, node)); n != 1 {
			t.Fatalf("after the next call %d connections to node %d pooled, want the one fresh dial", n, node)
		}
	}
}

// TestReadMultiReportsLowestFailingNode: when two nodes fail, the call
// fails with the lower-indexed node's error even when the other's arrives
// first. Both answers are big, so node 3's is read on a goroutine while
// the caller waits on node 2's: node 3 fails at once (its owner endpoint is
// closed), node 2 only after the driver's ReadPatience.
func TestReadMultiReportsLowestFailingNode(t *testing.T) {
	f, b, servers := newCluster(t, 4, 1)
	b.cfg.ReadPatience = 50 * time.Millisecond
	specs := []transport.ReadSpec{
		fanoutBlock(t, f, 1, 0, smallSide),
		fanoutBlock(t, f, 2, 1, bigSide),
		fanoutBlock(t, f, 2, 2, smallSide),
		fanoutBlock(t, f, 3, 3, bigSide),
	}
	if err := f.Endpoint(2).Unexpose(specs[2].Key); err != nil {
		t.Fatal(err)
	}
	servers[3].fabric.Endpoint(3).Close()
	err := f.Endpoint(0).ReadMulti(specs, dataMeter, func(i int, _ any, clipped []byte) error {
		return checkSegment(specs[i], clipped)
	})
	var se *transport.SpecError
	if !errors.As(err, &se) || se.Index != 1 || !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("err = %v, want node 2's error attributed to its first spec, index 1", err)
	}
	if errors.Is(err, transport.ErrEndpointClosed) {
		t.Fatalf("err = %v carries node 3's closed endpoint", err)
	}
}
