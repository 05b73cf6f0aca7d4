package cods

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// blockWire encodes a stored block of the given region, filled by
// fillRegion, in the block wire form.
func blockWire(t testing.TB, region geometry.BBox) []byte {
	t.Helper()
	wire, err := (&StoredObject{Region: region, Data: fillRegion(region)}).AppendBlock(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// rawBlock hand-builds a block wire form from arbitrary header values.
func rawBlock(bounds [][2]int64, cellBytes int) []byte {
	wire := []byte{uint8(len(bounds))}
	for _, b := range bounds {
		wire = binary.BigEndian.AppendUint64(wire, uint64(b[0]))
		wire = binary.BigEndian.AppendUint64(wire, uint64(b[1]))
	}
	return append(wire, make([]byte, cellBytes)...)
}

// TestBlockCodecRoundTrip pins the wire form of a stored block: decode is
// the inverse of AppendBlock, the header is rank plus per-dimension bounds,
// the cell section is byte for byte what ClipRegion emits for the whole
// region, and AppendBlock appends — what dst already held stays. The
// decoded block keeps the cell section as it came, and serves it back
// unchanged.
func TestBlockCodecRoundTrip(t *testing.T) {
	for _, region := range []geometry.BBox{
		geometry.BoxFromSize([]int{1}),
		geometry.NewBBox(geometry.Point{-3}, geometry.Point{5}),
		geometry.NewBBox(geometry.Point{4, 4}, geometry.Point{8, 9}),
		geometry.NewBBox(geometry.Point{1, 0, 2}, geometry.Point{3, 4, 5}),
	} {
		obj := &StoredObject{Region: region, Data: fillRegion(region)}
		wire, err := obj.AppendBlock([]byte("prefix"))
		if err != nil {
			t.Fatalf("%v: %v", region, err)
		}
		if !bytes.HasPrefix(wire, []byte("prefix")) {
			t.Fatalf("%v: AppendBlock overwrote dst", region)
		}
		wire = wire[len("prefix"):]
		hdr := 1 + 16*region.Dim()
		if want := hdr + int(region.Volume())*ElemSize; len(wire) != want {
			t.Fatalf("%v: wire form is %d bytes, want %d", region, len(wire), want)
		}
		cells, err := obj.ClipRegion(nil, region)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire[hdr:], cells) {
			t.Fatalf("%v: cell section differs from ClipRegion of the whole region", region)
		}
		got, err := transport.DecodeBlock(wire)
		if err != nil {
			t.Fatalf("%v: decode: %v", region, err)
		}
		back := got.(*wireBlock)
		if !back.Region.Equal(region) {
			t.Fatalf("region round-tripped to %v, want %v", back.Region, region)
		}
		if !bytes.Equal(back.Cells, cells) {
			t.Fatalf("%v: decoded block holds other cells than it was sent", region)
		}
		served, err := back.ClipRows(nil, region)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]float64, region.Volume())
		if err := copySegment(data, region, bytes.Join(served, nil), region); err != nil {
			t.Fatal(err)
		}
		checkRegion(t, region, data)
	}
}

// TestBlockCodecStrict walks the decoder's rejections. None of these
// inputs may size an allocation: each is refused from its header and
// length alone.
func TestBlockCodecStrict(t *testing.T) {
	valid := blockWire(t, geometry.NewBBox(geometry.Point{4, 4}, geometry.Point{8, 8}))
	for _, tc := range []struct {
		name string
		wire []byte
		want string
	}{
		{"empty", nil, "missing rank"},
		{"rank zero", []byte{0}, "rank 0"},
		{"short header", valid[:1+16*2-1], "cannot hold"},
		{"header only", valid[:1+16*2], "more than the 0 cells"},
		{"one cell short", valid[:len(valid)-ElemSize], "more than the 15 cells"},
		{"torn cell", valid[:len(valid)-1], "whole number of cells"},
		{"trailing cell", append(append([]byte(nil), valid...), make([]byte, ElemSize)...), "carries 17"},
		{"trailing byte", append(append([]byte(nil), valid...), 0), "whole number of cells"},
		{"inverted", rawBlock([][2]int64{{8, 4}}, 4*ElemSize), "empty or inverted"},
		{"empty dimension", rawBlock([][2]int64{{0, 4}, {3, 3}}, 4*ElemSize), "empty or inverted"},
		{"volume overflows int64", rawBlock([][2]int64{{0, 1 << 40}, {0, 1 << 40}}, 8*ElemSize), "more than the 8 cells"},
		{"extent overflows int64", rawBlock([][2]int64{{math.MinInt64, math.MaxInt64}}, 8*ElemSize), "more than the 8 cells"},
		{"hostile volume, no cells", rawBlock([][2]int64{{0, 1 << 31}, {0, 1 << 31}}, 0), "more than the 0 cells"},
	} {
		got, err := decodeBlock(tc.wire)
		if err == nil {
			t.Errorf("%s: decoder accepted it as %+v", tc.name, got)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// The encoder refuses what the decoder would: no rank, no cells, a
	// data slice that does not fill the region.
	for _, obj := range []*StoredObject{
		{},
		{Region: geometry.BoxFromSize([]int{0}), Data: nil},
		{Region: geometry.BoxFromSize([]int{4}), Data: make([]float64, 3)},
	} {
		if wire, err := obj.AppendBlock(nil); err == nil {
			t.Errorf("AppendBlock accepted %+v as %d bytes", obj, len(wire))
		}
	}
}

// FuzzBlockCodec throws arbitrary bytes at the block decoder. It must
// never panic, keep no more cell bytes than the input carries, and accept
// only canonical input: whatever decodes serves itself back — its region's
// box, then its clip of the whole region — as exactly the same bytes.
func FuzzBlockCodec(f *testing.F) {
	valid := blockWire(f, geometry.NewBBox(geometry.Point{4, 4}, geometry.Point{8, 8}))
	f.Add(valid)
	f.Add(blockWire(f, geometry.NewBBox(geometry.Point{-2}, geometry.Point{1})))
	f.Add(blockWire(f, geometry.BoxFromSize([]int{2, 1, 3})))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(valid[:1+16*2-1])                                                   // short header
	f.Add(valid[:len(valid)-1])                                               // torn cell
	f.Add(append(append([]byte(nil), valid...), 0xFF))                        // trailing byte
	f.Add(rawBlock([][2]int64{{8, 4}}, 4*ElemSize))                           // inverted
	f.Add(rawBlock([][2]int64{{0, 1 << 40}, {0, 1 << 40}}, 8*ElemSize))       // overflowing volume
	f.Add(rawBlock([][2]int64{{math.MinInt64, math.MaxInt64}}, 8*ElemSize))   // overflowing extent
	f.Add(bytes.Repeat([]byte{0xFF}, 64))                                     // rank 255, nothing behind it
	f.Add(append([]byte{1}, bytes.Repeat([]byte{0x00}, 16+2*ElemSize)...))    // zero soup
	f.Add(rawBlock([][2]int64{{0, 1 << 31}, {0, 1 << 31}, {0, 1 << 31}}, 64)) // hostile volume
	f.Fuzz(func(t *testing.T, wire []byte) {
		got, err := decodeBlock(wire)
		if err != nil {
			return
		}
		blk := got.(*wireBlock)
		if len(blk.Cells) > len(wire) {
			t.Fatalf("decoded %d cell bytes out of %d bytes", len(blk.Cells), len(wire))
		}
		rows, err := blk.ClipRows(nil, blk.Region)
		if err != nil {
			t.Fatalf("accepted block fails to clip itself: %v", err)
		}
		if out := append(geometry.AppendBox(nil, blk.Region), bytes.Join(rows, nil)...); !bytes.Equal(out, wire) {
			t.Fatalf("accepted block is not canonical:\nin  %x\nout %x", wire, out)
		}
	})
}
