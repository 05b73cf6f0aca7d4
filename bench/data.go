package main

// Synthetic field data and its verification. Every cell value is a
// function of the seed, a variant (which pre-built buffer) and the cell's
// global coordinates, so any region a get returns can be checked against
// the generator without keeping a second copy of the domain.

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/insitu/cods/internal/geometry"
)

// field generates the cells of a 2-D domain. Values carry a full 52-bit
// mantissa, like a simulation's: gob, which ships staged blocks, drops the
// trailing zero bytes of a float64, so round numbers would understate every
// put by more than half.
type field struct {
	salt uint64
}

func newField(seed int64) field {
	return field{salt: uint64(seed) * 0x9e3779b97f4a7c15}
}

// at is a splitmix64 hash of the coordinates, mapped into [1, 2).
func (f field) at(variant, x, y int) float64 {
	z := f.salt + uint64(variant)<<56 + uint64(x)<<28 + uint64(y)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return math.Float64frombits(0x3ff<<52 | z>>12)
}

// fill returns the row-major cells of region.
func (f field) fill(variant int, region geometry.BBox) []float64 {
	out := make([]float64, region.Volume())
	i := 0
	for x := region.Min[0]; x < region.Max[0]; x++ {
		for y := region.Min[1]; y < region.Max[1]; y++ {
			out[i] = f.at(variant, x, y)
			i++
		}
	}
	return out
}

// check compares got with the generator cell by cell.
func (f field) check(variant int, region geometry.BBox, got []float64) error {
	if int64(len(got)) != region.Volume() {
		return fmt.Errorf("region %v: got %d cells, want %d", region, len(got), region.Volume())
	}
	i := 0
	for x := region.Min[0]; x < region.Max[0]; x++ {
		for y := region.Min[1]; y < region.Max[1]; y++ {
			if want := f.at(variant, x, y); got[i] != want {
				return fmt.Errorf("region %v: cell (%d,%d) = %v, want %v", region, x, y, got[i], want)
			}
			i++
		}
	}
	return nil
}

// checksum is an order-sensitive digest of a slice: four interleaved
// polynomial lanes over the cells' bit patterns, so a scatter that permutes
// cells changes it, at well under a nanosecond per cell.
func checksum(data []float64) uint64 {
	const p = 0x100000001b3
	var h0, h1, h2, h3 uint64
	i := 0
	for ; i+4 <= len(data); i += 4 {
		h0 = h0*p + math.Float64bits(data[i])
		h1 = h1*p + math.Float64bits(data[i+1])
		h2 = h2*p + math.Float64bits(data[i+2])
		h3 = h3*p + math.Float64bits(data[i+3])
	}
	for ; i < len(data); i++ {
		h0 = h0*p + math.Float64bits(data[i])
	}
	return h0 ^ bits.RotateLeft64(h1, 16) ^ bits.RotateLeft64(h2, 32) ^ bits.RotateLeft64(h3, 48) ^ uint64(len(data))
}

// box builds a 2-D region from inclusive lower and exclusive upper corners.
func box(x0, y0, x1, y1 int) geometry.BBox {
	return geometry.NewBBox(geometry.Point{x0, y0}, geometry.Point{x1, y1})
}

// blocks tiles a side×side domain with b×b blocks, row-major.
func blocks(side, b int) []geometry.BBox {
	var out []geometry.BBox
	for x := 0; x < side; x += b {
		for y := 0; y < side; y += b {
			out = append(out, box(x, y, x+b, y+b))
		}
	}
	return out
}

// insetQuadrants returns the four quadrants of a side×side domain, each
// shrunk by inset cells on every edge, so a get of one never aligns with
// the staged blocks and every boundary block is clipped by its owner.
func insetQuadrants(side, inset int) []geometry.BBox {
	h := side / 2
	var out []geometry.BBox
	for _, x := range []int{0, h} {
		for _, y := range []int{0, h} {
			out = append(out, box(x+inset, y+inset, x+h-inset, y+h-inset))
		}
	}
	return out
}
