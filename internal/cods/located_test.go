package cods

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
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
// the bound, 2,048 in each of the two DHT cores' tables. Read one row at a
// time, the first row is a region query, the second a repeat lookup that
// brings back the whole table of the one core it reaches, and no other row
// of that half makes a lookup; the first row of the other half brings back
// the other table, which fills exactly the room left, and a get anywhere
// after it makes no lookup. A repeat lookup whose room, shared by the cores
// it asks, is less than their tables hold is answered with the entries
// overlapping its region. An answer that would take the tables past the
// bound empties them before it is indexed. A handle that reads one region
// of a version indexes nothing.
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
	half := sp.Lookup().TableSize(0)
	if side*side != maxLocatedEntries || half != maxLocatedEntries/2 || sp.Lookup().TableSize(1) != half {
		t.Fatalf("the domain holds %d blocks, %d and %d in the two tables; the bound is %d",
			side*side, half, sp.Lookup().TableSize(1), maxLocatedEntries)
	}
	g := sp.HandleAt(0, 2, "g")
	var lookups []int
	for x := 0; x < side; x++ {
		before := controlFlows(m, "g")
		if _, err := g.GetSequential("v", 0, box(x, 0, x+1, side)); err != nil {
			t.Fatal(err)
		}
		if controlFlows(m, "g") != before {
			lookups = append(lookups, x)
			if want := []int{side, half, half}[len(lookups)-1]; len(lookups) <= 3 && len(g.pending.entries) != want {
				t.Fatalf("lookup %d (row %d) brought back %d entries, want %d", len(lookups), x, len(g.pending.entries), want)
			}
		}
		if g.nLocated+len(g.pending.entries) > maxLocatedEntries {
			t.Fatalf("after %d rows the handle holds %d entries and %d more pending", x+1, g.nLocated, len(g.pending.entries))
		}
	}
	if !slices.Equal(lookups, []int{0, 1, side / 2}) {
		t.Fatalf("rows %v made a lookup, want 0, 1 and %d", lookups, side/2)
	}
	before := controlFlows(m, "g")
	if _, err := g.GetSequential("v", 0, box(10, 10, 20, 20)); err != nil {
		t.Fatal(err)
	}
	if n := controlFlows(m, "g") - before; n != 0 || g.nLocated != maxLocatedEntries {
		t.Fatalf("a get inside the full located table cost %d control flows, with %d entries indexed", n, g.nLocated)
	}

	// The centre 2x2 box meets both tables; with a row located, the room
	// each core is given is 2,016 entries, less than its 2,048.
	c := sp.HandleAt(1, 2, "c")
	for _, r := range []geometry.BBox{box(0, 0, 1, side), box(31, 31, 33, 33)} {
		if _, err := c.GetSequential("v", 0, r); err != nil {
			t.Fatal(err)
		}
	}
	if c.nLocated != side || len(c.pending.entries) != 4 {
		t.Fatalf("a repeat lookup past its bound left %d entries indexed and %d pending, want %d and the 4 it overlaps",
			c.nLocated, len(c.pending.entries), side)
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

// tablesAsked counts the lookups that asked for whole tables
// (dht.Client.Tables); observability must be on.
var tablesAsked = obs.C("dht.query.tables")

// TestRepeatLookupBringsTables: on a 32x32 domain of sixty-four 4x4 blocks,
// split 32 and 32 between the two DHT cores' tables, a handle's first
// lookup of a version is a region query, and its second brings back the
// whole table of the core its region reaches, so a get elsewhere in that
// half costs no control flow. A lookup with the cache off, of another
// version, or by another handle is a region query, and so is the first
// lookup after the variable's stamp moved, which dropped the tables.
func TestRepeatLookupBringsTables(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	const side, blk = 32, 4
	m, sp := testRig(t, 2, 2, []int{side, side})
	for version := 0; version < 2; version++ {
		for x := 0; x < side; x += blk {
			for y := 0; y < side; y += blk {
				b := box(x, y, x+blk, y+blk)
				if err := sp.HandleAt(cluster.CoreID((x+y)/blk%4), 1, "put").PutSequential("v", version, b, fillRegion(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if sp.Lookup().TableSize(0) != 64 || sp.Lookup().TableSize(1) != 64 {
		t.Fatalf("the tables hold %d and %d entries of two versions, want 64 each",
			sp.Lookup().TableSize(0), sp.Lookup().TableSize(1))
	}
	// Rows 0-15 lie in one core's half of the curve: a and b are two blocks
	// each there, elsewhere four blocks no get before it met.
	a, b, elsewhere := box(1, 1, 3, 7), box(9, 9, 11, 15), box(6, 18, 14, 26)
	// get reads region of v at version through h, checks the cells, and
	// returns how many control flows it cost and how many of them asked for
	// tables.
	get := func(h *Handle, version int, region geometry.BBox) (flows, tables int) {
		t.Helper()
		before, asked := controlFlows(m, h.phase), tablesAsked.Value()
		got, err := h.GetSequential("v", version, region)
		if err != nil {
			t.Fatal(err)
		}
		checkRegion(t, region, got)
		return controlFlows(m, h.phase) - before, int(tablesAsked.Value() - asked)
	}

	g := sp.HandleAt(3, 2, "g")
	if n, tables := get(g, 0, a); n == 0 || tables != 0 || len(g.pending.entries) != 2 {
		t.Fatalf("the first lookup cost %d control flows, asked %d times for tables and found %d entries; want a region query for 2",
			n, tables, len(g.pending.entries))
	}
	if n, tables := get(g, 0, b); n == 0 || tables != 1 || len(g.pending.entries) != 32 {
		t.Fatalf("the repeat lookup cost %d control flows, asked %d times for tables and found %d entries; want one core's 32",
			n, tables, len(g.pending.entries))
	}
	if n, _ := get(g, 0, elsewhere); n != 0 {
		t.Fatalf("a get elsewhere in the fetched table cost %d control flows, want 0", n)
	}
	if g.CacheMisses != 3 || g.CacheHits != 0 {
		t.Fatalf("%d schedule misses and %d hits, want 3 and 0", g.CacheMisses, g.CacheHits)
	}
	// A region of its own: the schedule cache would serve a's schedule at
	// every version.
	if n, tables := get(g, 1, box(2, 2, 4, 6)); n == 0 || tables != 0 {
		t.Fatalf("the first lookup of version 1 cost %d control flows and asked %d times for tables; want a region query", n, tables)
	}

	off := sp.HandleAt(2, 2, "off")
	off.CacheEnabled = false
	for _, r := range []geometry.BBox{a, b, elsewhere} {
		if n, tables := get(off, 0, r); n == 0 || tables != 0 {
			t.Fatalf("with the cache off the get of %v cost %d control flows and asked %d times for tables; want a region query", r, n, tables)
		}
	}
	if n, tables := get(sp.HandleAt(3, 2, "other"), 0, a); n == 0 || tables != 0 {
		t.Fatalf("another handle's first lookup cost %d control flows and asked %d times for tables; want a region query", n, tables)
	}

	// A discard of v moves its stamp: the fetched tables are dropped, and the
	// next lookup is a first one again.
	extra := box(0, 0, 1, 1)
	p := sp.HandleAt(0, 1, "put")
	if err := p.PutSequential("v", 9, extra, fillRegion(extra)); err != nil {
		t.Fatal(err)
	}
	if err := p.DiscardSequential("v", 9, extra); err != nil {
		t.Fatal(err)
	}
	if n, tables := get(g, 0, box(13, 1, 15, 3)); n == 0 || tables != 0 || len(g.pending.entries) != 1 {
		t.Fatalf("after a discard a get cost %d control flows, asked %d times for tables and found %d entries; want a region query for 1",
			n, tables, len(g.pending.entries))
	}
	if _, ok := g.located[locatedKey{"v", 0}]; ok {
		t.Fatal("the tables fetched before the discard are still indexed")
	}
}

// BenchmarkLocatedSchedule times locatedSchedule over the located table
// seq-lookup-tcp's handles reach: a 512x512 domain of 1,024 16x16 blocks,
// read by never-repeated regions of 17-32 cells a side. Each call scans the
// table's packed corners (Locations.Overlapping), clips the hits, checks
// that they tile and orders them.
func BenchmarkLocatedSchedule(b *testing.B) {
	const side, blk = 512, 16
	_, sp := testRig(b, 2, 2, []int{side, side})
	for n := 0; n < (side/blk)*(side/blk); n++ {
		x, y := n/(side/blk)*blk, n%(side/blk)*blk
		r := box(x, y, x+blk, y+blk)
		if err := sp.HandleAt(cluster.CoreID(n%4), 1, "put").PutSequential("u", 0, r, fillRegion(r)); err != nil {
			b.Fatal(err)
		}
	}
	h := sp.HandleAt(0, 2, "get")
	if _, err := h.GetSequential("u", 0, box(0, 0, side, side)); err != nil {
		b.Fatal(err)
	}
	h.index()
	gen, err := sp.stamp("u", 0)
	if err != nil || h.nLocated != 1024 {
		b.Fatalf("%d entries located, stamp %v", h.nLocated, err)
	}
	rng := rand.New(rand.NewSource(1))
	regions := make([]geometry.BBox, 4096)
	for i := range regions {
		w, l := 17+rng.Intn(16), 17+rng.Intn(16)
		x, y := rng.Intn(side-w+1), rng.Intn(side-l+1)
		regions[i] = box(x, y, x+w, y+l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.locatedSchedule("u", 0, regions[i%len(regions)], gen) == nil {
			b.Fatal("the located table did not tile a region inside it")
		}
	}
}
