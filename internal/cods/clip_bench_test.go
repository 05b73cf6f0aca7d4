package cods

import (
	"testing"

	"github.com/insitu/cods/internal/geometry"
)

// The two halves of a warm bulk get, in seq-bulk-tcp's shape: blocks of
// 256x256 cells, a get region of 1008x1008 (a 1024-cell quadrant inset by
// 16), so a segment is a whole block or a block clipped by 16 cells along
// both dimensions.
const (
	benchBlock  = 256
	benchInset  = 16
	benchRegion = 1008
)

var (
	benchBlockBox = geometry.BoxFromSize([]int{benchBlock, benchBlock})
	benchInsetBox = geometry.NewBBox(geometry.Point{benchInset, benchInset}, geometry.Point{benchBlock, benchBlock})
)

// BenchmarkCopySegment scatters a 256x256 segment into the row-major
// output of a 1008x1008 get (8 MB): the reader's decode. Successive
// iterations land on the nine whole-block slots of the output in turn, so
// the destination comes from memory, not cache, as in a get.
func BenchmarkCopySegment(b *testing.B) {
	dstBox := geometry.BoxFromSize([]int{benchRegion, benchRegion})
	dst := make([]float64, dstBox.Volume())
	var subs []geometry.BBox
	for x := 0; x+benchBlock <= benchRegion; x += benchBlock {
		for y := 0; y+benchBlock <= benchRegion; y += benchBlock {
			subs = append(subs, geometry.NewBBox(geometry.Point{x, y}, geometry.Point{x + benchBlock, y + benchBlock}))
		}
	}
	seg, err := (&StoredObject{Region: benchBlockBox, Data: fillRegion(benchBlockBox)}).ClipRegion(nil, benchBlockBox)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := copySegment(dst, dstBox, seg, subs[i%len(subs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClip times clip, one owner-side clip into reused storage, on each
// sub-box shape; a clip that copies reports the bytes it produced.
func benchClip(b *testing.B, copies bool, clip func(sub geometry.BBox) error) {
	for _, tc := range []struct {
		name string
		sub  geometry.BBox
	}{{"whole", benchBlockBox}, {"inset", benchInsetBox}} {
		b.Run(tc.name, func(b *testing.B) {
			if copies {
				b.SetBytes(tc.sub.Volume() * ElemSize)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := clip(tc.sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireBlockClipRows is a serving process's clip: the runs of the
// block as it arrived that hold the sub-box, into a reused run list. No
// cell is copied, so the figure is the cost of the row walk alone.
func BenchmarkWireBlockClipRows(b *testing.B) {
	wire, err := appendBlock(nil, &StoredObject{Region: benchBlockBox, Data: fillRegion(benchBlockBox)})
	if err != nil {
		b.Fatal(err)
	}
	blk, err := decodeBlock(wire)
	if err != nil {
		b.Fatal(err)
	}
	var rows [][]byte
	benchClip(b, false, func(sub geometry.BBox) (err error) {
		rows, err = blk.(*wireBlock).ClipRows(rows[:0], sub)
		return err
	})
}

// BenchmarkStoredObjectClip is the cell encoder, every cell converted from
// the producer's []float64 into a reused buffer: for the whole block, the
// conversion an expose no longer pays on the producer (AppendBlock hands
// its cells over as they lie).
func BenchmarkStoredObjectClip(b *testing.B) {
	obj := &StoredObject{Region: benchBlockBox, Data: fillRegion(benchBlockBox)}
	buf := make([]byte, 0, benchBlockBox.Volume()*ElemSize)
	benchClip(b, true, func(sub geometry.BBox) (err error) {
		buf, err = obj.ClipRegion(buf[:0], sub)
		return err
	})
}
