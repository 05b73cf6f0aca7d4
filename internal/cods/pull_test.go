package cods

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// stageGrid stages an nx x ny grid of blocks of the given side as one
// variable, one block per core (round-robin), and returns the full domain
// region. Used by the pull-engine tests and benchmarks.
func stageGrid(t testing.TB, sp *Space, v string, version, nx, ny, side int) geometry.BBox {
	t.Helper()
	cores := sp.Fabric().Machine().TotalCores()
	for bx := 0; bx < nx; bx++ {
		for by := 0; by < ny; by++ {
			blk := geometry.NewBBox(
				geometry.Point{bx * side, by * side},
				geometry.Point{(bx + 1) * side, (by + 1) * side})
			core := cluster.CoreID((bx*ny + by) % cores)
			h := sp.HandleAt(core, 1, "put")
			if err := h.PutSequential(v, version, blk, fillRegion(blk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return geometry.BoxFromSize([]int{nx * side, ny * side})
}

// TestScheduleReadsEachStoredBlockOnce states the invariant a schedule
// rests on: whatever the producer's decomposition and the get region, both
// operators build a read list with at most one spec per stored block —
// there is never anything to merge — that covers the region exactly and is
// in (owner, sub-box) order, every spec lying inside the block its key
// names and metering exactly its cells.
func TestScheduleReadsEachStoredBlockOnce(t *testing.T) {
	for _, kind := range []decomp.Kind{decomp.Blocked, decomp.Cyclic, decomp.BlockCyclic} {
		for _, size := range [][]int{{12}, {12, 10}, {8, 6, 6}} {
			dim := len(size)
			grid, block, consGrid := []int{3, 2, 2}[:dim], []int{2, 2, 2}[:dim], []int{2, 2, 2}[:dim]
			dom := geometry.BoxFromSize(size)
			_, sp := testRig(t, 4, 3, size)
			dc, err := decomp.New(kind, dom, grid, block)
			if err != nil {
				t.Fatal(err)
			}
			cons, err := decomp.New(decomp.Blocked, dom, consGrid, nil)
			if err != nil {
				t.Fatal(err)
			}
			coreOf := func(r int) cluster.CoreID { return cluster.CoreID(r) }
			putAll(t, sp, dc, coreOf, "v", 0, true)
			info := ProducerInfo{Decomp: dc, CoreOf: coreOf}
			h := sp.HandleAt(0, 2, "get")
			for rank := 0; rank < cons.NumTasks(); rank++ {
				owned := cons.Region(rank)[0]
				for _, region := range []geometry.BBox{owned, owned.Expand(-1, dom), owned.Expand(1, dom)} {
					if region.Empty() {
						continue
					}
					name := fmt.Sprintf("%v %dD %v", kind, dim, region)
					cont := h.concurrentSchedule(info, "v", region)
					seq, err := h.sequentialSchedule("v", 0, region)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for op, sched := range map[string][]transport.ReadSpec{"cont": cont, "seq": seq} {
						checkSchedule(t, name+" "+op, dc, coreOf, region, sched)
					}
				}
			}
		}
	}
}

// checkSchedule holds one schedule for region to the producer's layout.
func checkSchedule(t *testing.T, name string, dc *decomp.Decomposition, coreOf func(int) cluster.CoreID,
	region geometry.BBox, sched []transport.ReadSpec) {
	t.Helper()
	type block struct {
		owner cluster.CoreID
		key   string
	}
	seen := make(map[block]bool)
	subs := make([]geometry.BBox, 0, len(sched))
	for _, s := range sched {
		stored, owner := dc.BlockContaining(s.Sub.Min), coreOf(dc.OwnerOf(s.Sub.Min))
		if want := bufKey("v", stored, 0); s.Key != want || s.Owner != owner {
			t.Fatalf("%s: spec %+v reads %v of core %d, the cells live in %v of core %d",
				name, s.Sub, s.Key, s.Owner, want, owner)
		}
		if !stored.ContainsBox(s.Sub) || !region.ContainsBox(s.Sub) || s.Sub.Empty() {
			t.Fatalf("%s: sub-box %v leaves its block %v or the region", name, s.Sub, stored)
		}
		if s.Bytes != s.Sub.Volume()*ElemSize {
			t.Fatalf("%s: sub-box %v metered as %d bytes", name, s.Sub, s.Bytes)
		}
		b := block{s.Owner, s.Key.Name}
		if seen[b] {
			t.Fatalf("%s: block %s of core %d is read twice", name, s.Key.Name, s.Owner)
		}
		seen[b] = true
		subs = append(subs, s.Sub)
	}
	if !geometry.Disjoint(subs) || geometry.TotalVolume(subs) != region.Volume() {
		t.Fatalf("%s: sub-boxes cover %d of %d cells (disjoint: %v)",
			name, geometry.TotalVolume(subs), region.Volume(), geometry.Disjoint(subs))
	}
	if !slices.IsSortedFunc(sched, func(a, b transport.ReadSpec) int {
		if a.Owner != b.Owner {
			return cmp.Compare(a.Owner, b.Owner)
		}
		return geometry.Compare(a.Sub, b.Sub)
	}) {
		t.Fatalf("%s: schedule is not in (owner, sub-box) order", name)
	}
}

// TestDiscardInvalidatesCachedSchedule reproduces the stale-owner bug: a
// consumer caches a schedule pointing at owner A, the producer discards
// and restages the variable at owner B, and the consumer gets the next
// version. Without invalidation the cached schedule pulls (and blocks
// forever) on owner A.
func TestDiscardInvalidatesCachedSchedule(t *testing.T) {
	_, sp := testRig(t, 2, 2, []int{4, 4})
	blk := geometry.BoxFromSize([]int{4, 4})
	prodA := sp.HandleAt(0, 1, "p")
	if err := prodA.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}
	g := sp.HandleAt(1, 2, "g")
	if _, err := g.GetSequential("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	if g.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1", g.CacheMisses)
	}
	// Discard and restage at a different owner (core 2, the other node).
	if err := prodA.DiscardSequential("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	prodB := sp.HandleAt(2, 1, "p")
	if err := prodB.PutSequential("v", 1, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		out, err := g.GetSequential("v", 1, blk)
		if err == nil {
			checkRegion(t, blk, out)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get after discard-and-restage hung: stale cached schedule pulled from the old owner")
	}
	if g.CacheMisses != 2 {
		t.Fatalf("CacheMisses = %d, want 2 (schedule must be recomputed after discard)", g.CacheMisses)
	}
}

// TestConcurrentPutGetDiscardStress hammers the space from many goroutines
// (intended to run under -race): each owns a variable and loops
// put/get/discard, while readers query the lookup service for other
// goroutines' variables. Only coverage gaps are tolerated.
func TestConcurrentPutGetDiscardStress(t *testing.T) {
	_, sp := testRig(t, 4, 4, []int{32, 32})
	const (
		writers    = 8
		iterations = 20
	)
	blkOf := func(w int) geometry.BBox {
		return geometry.NewBBox(
			geometry.Point{(w % 4) * 8, (w / 4) * 8},
			geometry.Point{(w%4 + 1) * 8, (w/4 + 1) * 8})
	}
	// A stable variable the readers retrieve while the writers churn:
	// retrievals run the pull engine concurrently with the writers' DHT
	// inserts/removes and buffer discards.
	stable := stageGrid(t, sp, "stable", 0, 4, 4, 8)
	var wg sync.WaitGroup
	errCh := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := fmt.Sprintf("var%d", w)
			blk := blkOf(w)
			h := sp.HandleAt(cluster.CoreID(w), 1, "stress")
			for it := 0; it < iterations; it++ {
				if err := h.PutSequential(v, it, blk, fillRegion(blk)); err != nil {
					errCh <- err
					return
				}
				out, err := h.GetSequential(v, it, blk)
				if err != nil {
					errCh <- err
					return
				}
				if int64(len(out)) != blk.Volume() {
					errCh <- fmt.Errorf("writer %d: short read %d", w, len(out))
					return
				}
				if err := h.DiscardSequential(v, it, blk); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Readers retrieve the stable variable (full-domain pulls)
	// and probe the churning variables without pulling them: a lookup
	// query racing the writers' inserts and removes must never error or
	// wedge.
	for r := 0; r < writers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := sp.HandleAt(cluster.CoreID(8+r), 2, "poll")
			churn := fmt.Sprintf("var%d", (r+1)%writers)
			for it := 0; it < iterations; it++ {
				out, err := h.GetSequential("stable", 0, stable)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if int64(len(out)) != stable.Volume() {
					errCh <- fmt.Errorf("reader %d: short read %d", r, len(out))
					return
				}
				if _, err := h.lookupClient().Query(h.phase, h.app, churn, it, blkOf((r+1)%writers)); err != nil {
					errCh <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
