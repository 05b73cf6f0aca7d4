package cods

import (
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// tileSide bounds every coordinate of a tileCase: corners lie in
// [0, tileSide], so every cell in [0, tileSide)^d.
const tileSide = 9

// tileCase decodes a region and a list of sub-boxes of rank 1 to 3 from
// data, a missing byte reading 0. When the first byte is odd the sub-boxes
// are a tiling of the region made by splitting it, and then, half the
// time, changed by one edit: a piece duplicated, dropped, grown or shrunk
// by a cell on one axis. Otherwise every sub-box is decoded on its own.
func tileCase(data []byte) (geometry.BBox, []geometry.BBox) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	mode, d := next(), 1+next()%3
	box := func(side int) geometry.BBox {
		b := geometry.NewBBox(make(geometry.Point, d), make(geometry.Point, d))
		for i := 0; i < d; i++ {
			b.Min[i] = next() % side
			b.Max[i] = b.Min[i] + 1 + next()%(side-b.Min[i])
		}
		return b
	}
	region := box(tileSide - 1)
	var subs []geometry.BBox
	if mode%2 == 0 {
		for len(data) > 0 && len(subs) < 64 {
			b := box(tileSide - 1)
			if next()%4 == 0 {
				b.Max[0] = b.Min[0] // an empty box
			}
			subs = append(subs, b)
		}
		return region, subs
	}
	var split func(b geometry.BBox)
	split = func(b geometry.BBox) {
		axis := next() % d
		if next()%3 == 0 || b.Size(axis) < 2 {
			subs = append(subs, b)
			return
		}
		cut := b.Min[axis] + 1 + next()%(b.Size(axis)-1)
		lo, hi := b.Clone(), b.Clone()
		lo.Max[axis], hi.Min[axis] = cut, cut
		split(lo)
		split(hi)
	}
	split(region)
	k, axis := next()%len(subs), next()%d
	switch edit := subs[k].Clone(); next() % 8 {
	case 1:
		subs = append(subs, edit)
	case 2:
		subs = append(subs[:k], subs[k+1:]...)
	case 3:
		edit.Max[axis]++
		subs[k] = edit
	case 4:
		edit.Max[axis]--
		subs[k] = edit
	}
	return region, subs
}

// tilesByCells is the per-cell oracle of tiles: every sub-box is
// non-empty, and counting each cell of every sub-box, the cells of region
// are counted once and no other cell at all.
func tilesByCells(region geometry.BBox, subs []geometry.BBox) bool {
	d := region.Dim()
	n := 1
	for i := 0; i < d; i++ {
		n *= tileSide
	}
	count := make([]int, n)
	index := func(p geometry.Point) int {
		at := 0
		for _, c := range p {
			at = at*tileSide + c
		}
		return at
	}
	for _, s := range subs {
		if s.Empty() {
			return false
		}
		s.Each(func(p geometry.Point) { count[index(p)]++ })
	}
	geometry.BoxFromSize(region.Sizes()).Translate(region.Min).Each(func(p geometry.Point) { count[index(p)]-- })
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// specsOf is a schedule reading the sub-boxes subs.
func specsOf(subs []geometry.BBox) []transport.ReadSpec {
	sched := make([]transport.ReadSpec, len(subs))
	for i, s := range subs {
		sched[i] = transport.ReadSpec{Sub: s}
	}
	return sched
}

// TestTiles holds tiles to the per-cell count: named cases, among them an
// overlap beside a gap of the same size, and 20,000 decoded cases, about
// half of them edited tilings.
func TestTiles(t *testing.T) {
	region := box(0, 0, 4, 4)
	for _, tc := range []struct {
		name string
		subs []geometry.BBox
		want bool
	}{
		{"the region itself", []geometry.BBox{region}, true},
		{"four quadrants", []geometry.BBox{box(0, 0, 2, 2), box(2, 0, 4, 2), box(0, 2, 2, 4), box(2, 2, 4, 4)}, true},
		{"nothing", nil, false},
		{"a quadrant short", []geometry.BBox{box(0, 0, 2, 2), box(2, 0, 4, 2), box(0, 2, 2, 4)}, false},
		{"a duplicate", []geometry.BBox{region, region}, false},
		{"overlap beside a gap", []geometry.BBox{box(0, 0, 4, 2), box(0, 1, 4, 3)}, false},
		{"overlap, gap and the volume", []geometry.BBox{box(0, 0, 4, 3), box(0, 2, 4, 3)}, false},
		{"reaching outside", []geometry.BBox{box(0, 0, 4, 5)}, false},
		// In region's lattice of corners, 5 points a side, the corners of
		// [1,2)x[5,6) have the offsets of [2,3)x[0,1)'s, with their signs.
		{"outside, where a missing piece's corners would be", []geometry.BBox{
			box(0, 0, 2, 4), box(1, 5, 2, 6), box(2, 1, 3, 4), box(3, 0, 4, 4)}, false},
		{"an empty piece", []geometry.BBox{region, box(1, 1, 1, 3)}, false},
	} {
		if got := tiles(region, specsOf(tc.subs)); got != tc.want || got != tilesByCells(region, tc.subs) {
			t.Errorf("%s: tiles = %v, want %v", tc.name, got, tc.want)
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	data := make([]byte, 96)
	var yes int
	for i := 0; i < 20000; i++ {
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		region, subs := tileCase(data)
		want := tilesByCells(region, subs)
		if got := tiles(region, specsOf(subs)); got != want {
			t.Fatalf("tiles(%v, %v) = %v, the cell count says %v", region, subs, got, want)
		}
		if want {
			yes++
		}
	}
	if yes < 4000 || yes > 16000 {
		t.Fatalf("%d of 20,000 cases tile: too few of one kind to test both answers", yes)
	}
}

// FuzzTiles: tiles agrees with the per-cell count on every decoded case.
func FuzzTiles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 4, 0, 4, 1, 0, 1, 1, 1, 1, 3})
	f.Add([]byte{0, 2, 1, 3, 0, 5, 2, 2, 1, 3, 0, 5, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		region, subs := tileCase(data)
		if got, want := tiles(region, specsOf(subs)), tilesByCells(region, subs); got != want {
			t.Fatalf("tiles(%v, %v) = %v, the cell count says %v", region, subs, got, want)
		}
	})
}

// loseBackend serves every read of the fabric it embeds but never delivers
// the segment of spec lose, and reports success: a backend that lost a
// segment without noticing.
type loseBackend struct {
	*transport.Fabric
	lose int
}

func (b *loseBackend) ReadMulti(reader cluster.CoreID, specs []transport.ReadSpec, m transport.Meter, deliver transport.SegmentFunc) error {
	return b.Fabric.ReadMulti(reader, specs, m, func(i int, payload any, clipped []byte) error {
		if i == b.lose {
			return nil
		}
		return deliver(i, payload, clipped)
	})
}

// TestGetWritesEveryCell: a get whose cells are not all written fails
// instead of returning them — whether a backend loses a segment, the
// producer's decomposition leaves part of a concurrent get uncovered, or a
// cached schedule lost a spec the way mutate.SchedDropTransfer loses one.
func TestGetWritesEveryCell(t *testing.T) {
	dom := geometry.BoxFromSize([]int{8, 8})
	stage := func(t *testing.T, sp *Space) {
		for i, blk := range []geometry.BBox{box(0, 0, 8, 4), box(0, 4, 8, 8)} {
			if err := sp.HandleAt(cluster.CoreID(i), 1, "put").PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("a lost segment", func(t *testing.T) {
		_, sp := testRig(t, 2, 2, []int{8, 8})
		stage(t, sp)
		sp.Fabric().SetBackend(&loseBackend{Fabric: sp.Fabric(), lose: 1})
		if got, err := sp.HandleAt(3, 2, "get").GetSequential("v", 0, dom); err == nil {
			t.Fatalf("a get missing a segment returned %v", got)
		}
	})
	t.Run("a concurrent get outside the decomposition", func(t *testing.T) {
		_, sp := testRig(t, 2, 2, []int{8, 8})
		dc, err := decomp.New(decomp.Blocked, box(0, 0, 8, 4), []int{2, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		coreOf := func(r int) cluster.CoreID { return cluster.CoreID(r) }
		putAll(t, sp, dc, coreOf, "v", 0, false)
		got, err := sp.HandleAt(3, 2, "get").GetConcurrent(ProducerInfo{Decomp: dc, CoreOf: coreOf}, "v", 0, box(0, 2, 8, 6))
		if ce := coverageError(""); !errors.As(err, &ce) {
			t.Fatalf("a concurrent get half outside the producer's decomposition returned %v, %v; want a coverage error", got, err)
		}
	})
	t.Run("a trimmed cached schedule", func(t *testing.T) {
		_, sp := testRig(t, 2, 2, []int{8, 8})
		stage(t, sp)
		g := sp.HandleAt(3, 2, "get")
		if _, err := g.GetSequential("v", 0, dom); err != nil {
			t.Fatal(err)
		}
		key := g.schedKey("seq", "v", dom)
		e := g.schedCache[key]
		e.sched = e.sched[:len(e.sched)-1]
		g.schedCache[key] = e
		if got, err := g.GetSequential("v", 0, dom); err == nil {
			t.Fatalf("a get from a schedule that lost a spec returned %v", got)
		}
		if g.CacheHits != 1 {
			t.Fatalf("%d schedule-cache hits, want the trimmed schedule's 1", g.CacheHits)
		}
	})
}
