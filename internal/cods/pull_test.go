package cods

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
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

// TestNormalizeScheduleCoalesces verifies that abutting sub-boxes of the
// same stored block merge into one transfer with the volume preserved.
func TestNormalizeScheduleCoalesces(t *testing.T) {
	storedA := geometry.BoxFromSize([]int{8, 8})
	storedB := geometry.NewBBox(geometry.Point{8, 0}, geometry.Point{16, 8})
	sched := []transfer{
		{Owner: 3, StoredBox: storedA, Sub: geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 8})},
		{Owner: 3, StoredBox: storedA, Sub: geometry.NewBBox(geometry.Point{4, 0}, geometry.Point{8, 8})},
		{Owner: 5, StoredBox: storedB, Sub: geometry.NewBBox(geometry.Point{8, 0}, geometry.Point{12, 8})},
	}
	var before int64
	for _, tr := range sched {
		before += tr.Sub.Volume()
	}
	out := normalizeSchedule(sched)
	if len(out) != 2 {
		t.Fatalf("normalized to %d transfers, want 2: %+v", len(out), out)
	}
	var after int64
	subs := make([]geometry.BBox, 0, len(out))
	for _, tr := range out {
		after += tr.Sub.Volume()
		subs = append(subs, tr.Sub)
	}
	if after != before {
		t.Fatalf("coalescing changed volume: %d -> %d", before, after)
	}
	if !geometry.Disjoint(subs) {
		t.Fatalf("normalized subs overlap: %v", subs)
	}
	if out[0].Owner > out[1].Owner {
		t.Fatalf("normalized schedule not sorted by owner: %+v", out)
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

// TestClearInvalidatesCachedSchedule: Clear drops the lookup tables, so
// cached schedules must not survive it either.
func TestClearInvalidatesCachedSchedule(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{4})
	blk := geometry.BoxFromSize([]int{4})
	h := sp.HandleAt(0, 1, "p")
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}
	g := sp.HandleAt(1, 2, "g")
	if _, err := g.GetSequential("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	sp.Clear()
	if _, ok := g.cachedSchedule(g.schedKey("seq", "v", blk), "v"); ok {
		t.Fatal("cached schedule survived Clear")
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
