package cods

import (
	"errors"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
)

// box is the 2-D box [x0,x1) x [y0,y1).
func box(x0, y0, x1, y1 int) geometry.BBox {
	return geometry.NewBBox(geometry.Point{x0, y0}, geometry.Point{x1, y1})
}

// controlFlows counts the control flows the machine logged under phase:
// the DHT queries a handle of that phase made.
func controlFlows(m *cluster.Machine, phase string) int {
	n := 0
	for _, fl := range m.Metrics().Flows(phase) {
		if fl.Class == cluster.Control.String() {
			n++
		}
	}
	return n
}

// TestLocatedGets: a handle that has read regions A and B of version 0
// reads a region inside A ∪ B, which no lookup answer was for, without a
// lookup, and with the cells a lookup would have led to. Each get is still
// a schedule-cache miss. The located entries are not used once the
// variable's stamp has moved, at another version, with the cache off, or
// by another handle, and a region that meets two overlapping located
// entries is looked up, and fails when they do not tile it. A get of
// another variable in between does not lose what was located.
func TestLocatedGets(t *testing.T) {
	m, sp := testRig(t, 2, 2, []int{16, 16})
	blocks := []geometry.BBox{box(0, 0, 8, 8), box(0, 8, 8, 16), box(8, 0, 16, 8), box(8, 8, 16, 16)}
	for version := 0; version < 2; version++ {
		for i, blk := range blocks {
			if err := sp.HandleAt(cluster.CoreID(i), 1, "put").PutSequential("v", version, blk, fillRegion(blk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := box(0, 2, 8, 8), box(4, 8, 12, 12) // blocks 0, and 1 and 3
	inside := box(5, 6, 8, 10)                 // blocks 0 and 1, inside a ∪ b
	// get reads region of v at version through h, checks the cells, and
	// returns how many control flows it cost.
	get := func(h *Handle, version int, region geometry.BBox) int {
		t.Helper()
		before := controlFlows(m, h.phase)
		got, err := h.GetSequential("v", version, region)
		if err != nil {
			t.Fatal(err)
		}
		checkRegion(t, region, got)
		return controlFlows(m, h.phase) - before
	}

	g := sp.HandleAt(3, 2, "g")
	if get(g, 0, a) == 0 || get(g, 0, b) == 0 {
		t.Fatal("the first gets of a version made no lookup")
	}
	if n := get(g, 0, inside); n != 0 {
		t.Fatalf("a get inside the located area cost %d control flows, want 0", n)
	}
	if g.CacheMisses != 3 || g.CacheHits != 0 {
		t.Fatalf("%d schedule misses and %d hits, want 3 and 0", g.CacheMisses, g.CacheHits)
	}
	// A region of its own: the schedule cache would serve inside's schedule
	// at every version.
	if n := get(g, 1, box(6, 6, 8, 10)); n == 0 {
		t.Fatal("version 1 was served from version 0's located entries")
	}

	// A discard of v moves its stamp: the located entries of every version
	// of v are stale.
	extra := box(0, 0, 1, 1)
	p := sp.HandleAt(0, 1, "put")
	if err := p.PutSequential("v", 9, extra, fillRegion(extra)); err != nil {
		t.Fatal(err)
	}
	if err := p.DiscardSequential("v", 9, extra); err != nil {
		t.Fatal(err)
	}
	if n := get(g, 0, box(6, 7, 8, 9)); n == 0 {
		t.Fatal("a get after a discard was served from the stale located entries")
	}

	// With the cache off a handle neither uses what it located before nor
	// locates anything.
	g.CacheEnabled = false
	if n := get(g, 0, box(7, 7, 8, 9)); n == 0 {
		t.Fatal("with the cache turned off a get was served from the located entries")
	}
	off := sp.HandleAt(2, 2, "off")
	off.CacheEnabled = false
	for _, r := range []geometry.BBox{a, b, inside} {
		if n := get(off, 0, r); n == 0 {
			t.Fatalf("with the cache off the get of %v made no lookup", r)
		}
	}
	if off.nLocated != 0 || len(off.located) != 0 || off.pending.entries != nil {
		t.Fatalf("with the cache off a handle located %d entries and kept %d more",
			off.nLocated, len(off.pending.entries))
	}
	if n := get(sp.HandleAt(3, 2, "other"), 0, inside); n == 0 {
		t.Fatal("a second handle was served from the first's located entries")
	}

	// Two overlapping blocks of w, each located by a get that meets only
	// it. A region that meets both is looked up, although the cells of the
	// two clipped to it add up to its volume, and the get fails: the two
	// overlap on [2,4)x[3,4) and leave [0,2)x[4,5) uncovered.
	e1, e2 := box(0, 0, 4, 4), box(2, 2, 6, 6)
	for i, blk := range []geometry.BBox{e1, e2} {
		if err := sp.HandleAt(cluster.CoreID(1+i), 1, "put").PutSequential("w", 0, blk, fillRegion(blk)); err != nil {
			t.Fatal(err)
		}
	}
	w := sp.HandleAt(3, 2, "w")
	for _, r := range []geometry.BBox{box(0, 0, 2, 2), box(4, 4, 6, 6)} {
		if _, err := w.GetSequential("w", 0, r); err != nil {
			t.Fatal(err)
		}
	}
	before := controlFlows(m, "w")
	if got, err := w.GetSequential("w", 0, box(0, 3, 4, 5)); err == nil {
		t.Fatalf("a get of overlapping blocks that leave a gap returned %v", got)
	} else if ce := coverageError(""); !errors.As(err, &ce) {
		t.Fatalf("the overlap and gap were reported as %v, want a coverage error", err)
	}
	if controlFlows(m, "w") == before {
		t.Fatal("a region meeting two overlapping located entries was not looked up")
	}
	if w.pending.entries != nil {
		t.Fatalf("the answer that did not tile its region was kept: %v", w.pending.entries)
	}

	// A get of another variable in between keeps what was located of v.
	x := sp.HandleAt(3, 2, "x")
	get(x, 0, a)
	if _, err := x.GetSequential("w", 0, box(0, 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if n := get(x, 0, box(1, 3, 7, 7)); n != 0 {
		t.Fatalf("after a get of w, a get inside v's located area cost %d control flows", n)
	}
}

// TestLocatedBounded: a handle's located entries never pass
// maxLocatedEntries. A domain of 64x64 one-cell blocks is 4,096 entries,
// the bound: read one row at a time, every answer is indexed once the next
// get asks, the located table fills to the bound exactly, and a get inside
// it makes no lookup. An answer that would take the tables past the bound
// empties them before it is indexed. A handle that reads one region of a
// version indexes nothing.
func TestLocatedBounded(t *testing.T) {
	const side = 64
	m, sp := testRig(t, 2, 2, []int{side, side})
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			blk := box(x, y, x+1, y+1)
			if err := sp.HandleAt(cluster.CoreID((x+y)%4), 1, "put").PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if side*side != maxLocatedEntries {
		t.Fatalf("the domain holds %d blocks, the bound is %d", side*side, maxLocatedEntries)
	}
	g := sp.HandleAt(0, 2, "g")
	for x := 0; x < side; x++ {
		if _, err := g.GetSequential("v", 0, box(x, 0, x+1, side)); err != nil {
			t.Fatal(err)
		}
		if g.nLocated != x*side || len(g.pending.entries) != side {
			t.Fatalf("after %d rows the handle indexed %d entries and holds %d, want %d and %d",
				x+1, g.nLocated, len(g.pending.entries), x*side, side)
		}
	}
	before := controlFlows(m, "g")
	if _, err := g.GetSequential("v", 0, box(10, 10, 20, 20)); err != nil {
		t.Fatal(err)
	}
	if n := controlFlows(m, "g") - before; n != 0 || g.nLocated != maxLocatedEntries {
		t.Fatalf("a get inside the full located table cost %d control flows, with %d entries indexed", n, g.nLocated)
	}
	extra := box(0, 0, 2, 1)
	if err := sp.HandleAt(1, 1, "put").PutSequential("u", 0, extra, fillRegion(extra)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.GetSequential("u", 0, box(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	before = controlFlows(m, "g")
	if _, err := g.GetSequential("u", 0, box(1, 0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if n := controlFlows(m, "g") - before; g.nLocated != 1 || len(g.located) != 1 || n != 0 {
		t.Fatalf("a fill past the bound left %d entries in %d tables, and the get it served cost %d control flows; want 1 in 1, and 0",
			g.nLocated, len(g.located), n)
	}

	once := sp.HandleAt(3, 2, "once")
	if _, err := once.GetSequential("v", 0, box(0, 0, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if once.located != nil || len(once.pending.entries) != 64 {
		t.Fatalf("one get indexed %d tables and kept %d entries, want none and 64", len(once.located), len(once.pending.entries))
	}
}
