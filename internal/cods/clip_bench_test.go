package cods

import (
	"testing"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
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

// benchClip times one owner-side clip of each shape into a reused buffer.
func benchClip(b *testing.B, clipper transport.RegionClipper) {
	for _, tc := range []struct {
		name string
		sub  geometry.BBox
	}{{"whole", benchBlockBox}, {"inset", benchInsetBox}} {
		b.Run(tc.name, func(b *testing.B) {
			buf := make([]byte, 0, benchBlockBox.Volume()*ElemSize)
			b.SetBytes(tc.sub.Volume() * ElemSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = clipper.ClipRegion(buf[:0], tc.sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireBlockClip is a serving process's clip: row copies out of the
// block as it arrived.
func BenchmarkWireBlockClip(b *testing.B) {
	wire, err := (&StoredObject{Region: benchBlockBox, Data: fillRegion(benchBlockBox)}).AppendBlock(nil)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := decodeBlock(wire)
	if err != nil {
		b.Fatal(err)
	}
	benchClip(b, blk.(*wireBlock))
}

// BenchmarkStoredObjectClip is an in-process owner's clip: every cell
// encoded from the producer's []float64.
func BenchmarkStoredObjectClip(b *testing.B) {
	benchClip(b, &StoredObject{Region: benchBlockBox, Data: fillRegion(benchBlockBox)})
}
