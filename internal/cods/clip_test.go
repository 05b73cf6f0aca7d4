package cods

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/insitu/cods/internal/geometry"
)

// TestCopyRegionStrided exercises copyRegion with sub-boxes whose runs are
// non-contiguous in both source and destination: a 3-D interior box (every
// row is a strided run), a single-column box (run length 1, maximal
// striding) and a sub spanning two dimensions of a flat box.
func TestCopyRegionStrided(t *testing.T) {
	cases := []struct {
		name                string
		srcBox, dstBox, sub geometry.BBox
	}{
		{
			name:   "interior-3d",
			srcBox: geometry.BoxFromSize([]int{6, 6, 6}),
			dstBox: geometry.NewBBox(geometry.Point{1, 1, 1}, geometry.Point{6, 6, 6}),
			sub:    geometry.NewBBox(geometry.Point{2, 3, 1}, geometry.Point{5, 5, 4}),
		},
		{
			name:   "single-column",
			srcBox: geometry.BoxFromSize([]int{8, 8}),
			dstBox: geometry.BoxFromSize([]int{8, 8}),
			sub:    geometry.NewBBox(geometry.Point{1, 3}, geometry.Point{7, 4}),
		},
		{
			name:   "offset-boxes",
			srcBox: geometry.NewBBox(geometry.Point{4, 0}, geometry.Point{12, 5}),
			dstBox: geometry.NewBBox(geometry.Point{2, 1}, geometry.Point{10, 5}),
			sub:    geometry.NewBBox(geometry.Point{5, 2}, geometry.Point{9, 4}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fillRegion(tc.srcBox)
			dst := make([]float64, tc.dstBox.Volume())
			copyRegion(dst, tc.dstBox, src, tc.srcBox, tc.sub)
			var copied int64
			tc.sub.Each(func(p geometry.Point) {
				copied++
				if got := dst[tc.dstBox.Offset(p)]; got != cellValue(p) {
					t.Fatalf("dst cell %v = %v, want %v", p, got, cellValue(p))
				}
			})
			// Every cell outside sub stays zero: the strided copy never
			// bleeds past a run.
			var zeros int64
			for _, v := range dst {
				if v == 0 {
					zeros++
				}
			}
			if nonzero := tc.dstBox.Volume() - zeros; nonzero != copied {
				t.Fatalf("%d non-zero destination cells, want exactly %d copied", nonzero, copied)
			}
		})
	}
}

// TestClipRegionEdges drives owner-side clipping at the domain edges:
// empty intersection, single cell, full block and a partially overlapping
// sub-box. The clipped segment must scatter back through copySegment to
// exactly the intersection cells.
func TestClipRegionEdges(t *testing.T) {
	region := geometry.NewBBox(geometry.Point{4, 4}, geometry.Point{8, 8})
	obj := &StoredObject{Region: region, Data: fillRegion(region)}
	cases := []struct {
		name string
		sub  geometry.BBox
	}{
		{"empty", geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4})},
		{"single-cell", geometry.NewBBox(geometry.Point{4, 4}, geometry.Point{5, 5})},
		{"full-block", region},
		{"interior", geometry.NewBBox(geometry.Point{5, 5}, geometry.Point{7, 8})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seg, err := obj.ClipRegion(nil, tc.sub)
			if err != nil {
				t.Fatal(err)
			}
			clip, ok := tc.sub.Intersect(region)
			if !ok {
				if len(seg) != 0 {
					t.Fatalf("empty intersection produced %d bytes", len(seg))
				}
				return
			}
			if want := clip.Volume() * ElemSize; int64(len(seg)) != want {
				t.Fatalf("segment carries %d bytes, want %d", len(seg), want)
			}
			dstBox := geometry.BoxFromSize([]int{8, 8})
			dst := make([]float64, dstBox.Volume())
			if err := copySegment(dst, dstBox, seg, clip); err != nil {
				t.Fatal(err)
			}
			clip.Each(func(p geometry.Point) {
				if got := dst[dstBox.Offset(p)]; got != cellValue(p) {
					t.Fatalf("cell %v = %v, want %v", p, got, cellValue(p))
				}
			})
		})
	}
}

// TestClipRegionErrors: rank mismatches are errors, and copySegment
// rejects a segment whose length does not match its sub-box — the
// detector for a wire that lost cells.
func TestClipRegionErrors(t *testing.T) {
	region := geometry.BoxFromSize([]int{4, 4})
	obj := &StoredObject{Region: region, Data: fillRegion(region)}
	if _, err := obj.ClipRegion(nil, geometry.BoxFromSize([]int{4})); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	sub := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{2, 2})
	seg, err := obj.ClipRegion(nil, sub)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, region.Volume())
	if err := copySegment(dst, region, seg[:len(seg)-ElemSize], sub); err == nil {
		t.Fatal("short segment accepted")
	}
	if err := copySegment(dst, region, append(seg, 0), sub); err == nil {
		t.Fatal("overlong segment accepted")
	}
}

// clipCases returns, for a block region, the sub-boxes every clip must
// serve alike: the whole block, its interior, boxes straddling its lower
// and upper corners, a disjoint box, and single cells at the corner and
// inside.
func clipCases(region geometry.BBox) map[string]geometry.BBox {
	// near is the box [at+lo, at+hi) in every dimension.
	near := func(at geometry.Point, lo, hi int) geometry.BBox {
		b := geometry.BBox{Min: make(geometry.Point, len(at)), Max: make(geometry.Point, len(at))}
		for d, x := range at {
			b.Min[d], b.Max[d] = x+lo, x+hi
		}
		return b
	}
	return map[string]geometry.BBox{
		"whole":          region,
		"interior":       region.Expand(-1, region),
		"straddle-lower": near(region.Min, -2, 2),
		"straddle-upper": near(region.Max, -2, 3),
		"disjoint":       near(region.Max, 0, 2),
		"corner-cell":    near(region.Min, 0, 1),
		"inner-cell":     near(region.Min, 1, 2),
	}
}

// TestWireBlockClipMatchesStoredObject holds the owner's clip to the
// encoder: for 1-3-D blocks against every sub-box of clipCases, the runs a
// block decoded from the wire serves are, end to end, the bytes the
// StoredObject it was sent from encodes. Every run is a slice of the
// block's cells capped at its own end, the whole block is one run, the
// runs already listed stay, and a rank mismatch is an error.
func TestWireBlockClipMatchesStoredObject(t *testing.T) {
	for _, region := range []geometry.BBox{
		geometry.NewBBox(geometry.Point{3}, geometry.Point{11}),
		geometry.NewBBox(geometry.Point{4, 2}, geometry.Point{9, 8}),
		geometry.NewBBox(geometry.Point{1, 0, 2}, geometry.Point{4, 5, 6}),
	} {
		obj := &StoredObject{Region: region, Data: fillRegion(region)}
		wire, err := obj.AppendBlock(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBlock(wire)
		if err != nil {
			t.Fatal(err)
		}
		blk := got.(*wireBlock)
		for name, sub := range clipCases(region) {
			want, err := obj.ClipRegion(nil, sub)
			if err != nil {
				t.Fatal(err)
			}
			listed := []byte{0xDE, 0xAD}
			rows, err := blk.ClipRows([][]byte{listed}, sub)
			if err != nil {
				t.Fatalf("%v %s: %v", region, name, err)
			}
			if len(rows) == 0 || !bytes.Equal(rows[0], listed) {
				t.Fatalf("%v %s: the run already listed was dropped", region, name)
			}
			rows = rows[1:]
			if clip := bytes.Join(rows, nil); !bytes.Equal(clip, want) {
				t.Fatalf("%v %s (%v): wire block serves %d bytes %x, stored object encodes %d bytes %x",
					region, name, sub, len(clip), clip, len(want), want)
			}
			for _, run := range rows {
				if !within(run, blk.Cells) || cap(run) != len(run) {
					t.Fatalf("%v %s: a run of %d bytes is not a capped slice of the block's cells", region, name, len(run))
				}
			}
			if name == "whole" && len(rows) != 1 {
				t.Fatalf("%v: the whole block is %d runs, want 1", region, len(rows))
			}
		}
		other := geometry.BoxFromSize(make([]int, region.Dim()%3+1))
		if _, err := blk.ClipRows(nil, other); err == nil {
			t.Fatalf("%v: a rank-%d clip was accepted", region, other.Dim())
		}
	}
}

// within reports whether the non-empty run lies inside cells' memory.
func within(run, cells []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(cells)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(run)))
	return len(run) > 0 && at >= lo && at+uintptr(len(run)) <= lo+uintptr(len(cells))
}

// TestCopySegmentKernel holds the strided row decode to a per-cell
// reference: random cell bits scattered into 1-3-D destinations, for rows
// of 1 to 7 cells (either side of the four-cell unroll), at offsets inside
// the destination and as the whole of it. Only sub's cells change. A
// sub-box that leaves the destination or has another rank is an error,
// not a panic, and a scatter allocates at most once.
func TestCopySegmentKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	check := func(dstBox, sub geometry.BBox) {
		t.Helper()
		seg := make([]byte, sub.Volume()*ElemSize)
		rng.Read(seg)
		dst := make([]float64, dstBox.Volume())
		for i := range dst {
			dst[i] = -1
		}
		want := slices.Clone(dst)
		k := 0
		sub.Each(func(p geometry.Point) {
			want[dstBox.Offset(p)] = math.Float64frombits(binary.BigEndian.Uint64(seg[k:]))
			k += ElemSize
		})
		if err := copySegment(dst, dstBox, seg, sub); err != nil {
			t.Fatalf("%v into %v: %v", sub, dstBox, err)
		}
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v into %v: cell %d = %x, want %x", sub, dstBox, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
	}
	boxes := []geometry.BBox{
		geometry.NewBBox(geometry.Point{0}, geometry.Point{16}),
		geometry.NewBBox(geometry.Point{2, 3}, geometry.Point{12, 13}),
		geometry.NewBBox(geometry.Point{1, 0, 2}, geometry.Point{6, 5, 11}),
	}
	for _, dstBox := range boxes {
		check(dstBox, dstBox)
		for cells := 1; cells <= 7; cells++ {
			sub := dstBox.Clone()
			for d := range sub.Min {
				sub.Min[d]++
				sub.Max[d] = sub.Min[d] + 2
			}
			last := sub.Dim() - 1
			sub.Max[last] = sub.Min[last] + cells
			check(dstBox, sub)
		}
	}

	dstBox := boxes[1]
	dst := make([]float64, dstBox.Volume())
	for _, sub := range []geometry.BBox{
		geometry.NewBBox(geometry.Point{1, 3}, geometry.Point{4, 6}),   // starts before dstBox
		geometry.NewBBox(geometry.Point{10, 3}, geometry.Point{13, 6}), // ends past it
		geometry.NewBBox(geometry.Point{2}, geometry.Point{6}),         // another rank
	} {
		if err := copySegment(dst, dstBox, make([]byte, sub.Volume()*ElemSize), sub); err == nil {
			t.Fatalf("%v scattered into %v without an error", sub, dstBox)
		}
	}

	dstBox = boxes[2]
	sub := geometry.NewBBox(geometry.Point{2, 1, 3}, geometry.Point{5, 4, 10})
	seg := make([]byte, sub.Volume()*ElemSize)
	dst = make([]float64, dstBox.Volume())
	if allocs := testing.AllocsPerRun(100, func() {
		if err := copySegment(dst, dstBox, seg, sub); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("copySegment allocates %v times per scatter, want at most 1", allocs)
	}
}

// TestClipRegionAppends verifies the append contract pullers rely on for
// buffer reuse: clipping onto a non-empty prefix preserves it.
func TestClipRegionAppends(t *testing.T) {
	region := geometry.BoxFromSize([]int{3, 3})
	obj := &StoredObject{Region: region, Data: fillRegion(region)}
	prefix := []byte{0xDE, 0xAD}
	seg, err := obj.ClipRegion(prefix, region)
	if err != nil {
		t.Fatal(err)
	}
	if seg[0] != 0xDE || seg[1] != 0xAD {
		t.Fatal("prefix clobbered")
	}
	if want := int(region.Volume())*ElemSize + 2; len(seg) != want {
		t.Fatalf("appended %d bytes, want %d", len(seg), want)
	}
}
