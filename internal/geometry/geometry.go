// Package geometry provides n-dimensional integer points, axis-aligned
// bounding boxes and the region arithmetic used throughout the framework to
// describe application data domains, decomposition blocks and coupled data
// regions.
//
// Conventions: a BBox has an inclusive lower bound Min and an exclusive
// upper bound Max, so Volume is the product of (Max[d]-Min[d]). All
// operations treat boxes of mismatched dimensionality as a programming
// error and panic, since dimensionality is fixed per workflow domain.
package geometry

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"github.com/insitu/cods/internal/mutate"
)

// Point is an n-dimensional integer coordinate.
type Point []int

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same coordinate.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for d := range p {
		if p[d] != q[d] {
			return false
		}
	}
	return true
}

// Add returns p+q component-wise.
func (p Point) Add(q Point) Point {
	mustSameDim(len(p), len(q))
	r := make(Point, len(p))
	for d := range p {
		r[d] = p[d] + q[d]
	}
	return r
}

// String renders the point as "(x,y,z)".
func (p Point) String() string {
	parts := make([]string, len(p))
	for d, v := range p {
		parts[d] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// BBox is an axis-aligned box with inclusive Min and exclusive Max.
// The zero BBox has no dimensions and is empty.
type BBox struct {
	Min Point
	Max Point
}

// NewBBox builds a box from lower (inclusive) and upper (exclusive) corners.
// It panics if the corners disagree in dimension.
func NewBBox(min, max Point) BBox {
	mustSameDim(len(min), len(max))
	b := newBox(len(min))
	copy(b.Min, min)
	copy(b.Max, max)
	return b
}

// newBox returns a zero box of rank dim whose corners share one backing
// array, each half capped at dim so that appending to one corner can never
// write into the other.
func newBox(dim int) BBox {
	corners := make(Point, 2*dim)
	return BBox{Min: corners[:dim:dim], Max: corners[dim:]}
}

// BoxFromSize builds a box anchored at origin with the given per-dimension
// extent: [0,size[0]) x [0,size[1]) x ...
func BoxFromSize(size []int) BBox {
	b := newBox(len(size))
	copy(b.Max, size)
	return b
}

// Dim returns the dimensionality of the box.
func (b BBox) Dim() int { return len(b.Min) }

// Size returns the extent of the box in dimension d.
func (b BBox) Size(d int) int { return b.Max[d] - b.Min[d] }

// Sizes returns the extent in every dimension.
func (b BBox) Sizes() []int {
	s := make([]int, b.Dim())
	for d := range s {
		s[d] = b.Size(d)
	}
	return s
}

// Volume returns the number of integer cells inside the box. An empty or
// inverted box has volume 0.
func (b BBox) Volume() int64 {
	if b.Dim() == 0 {
		return 0
	}
	v := int64(1)
	for d := range b.Min {
		ext := int64(b.Max[d] - b.Min[d])
		if ext <= 0 {
			return 0
		}
		v *= ext
	}
	return v
}

// Empty reports whether the box contains no cells.
func (b BBox) Empty() bool { return b.Volume() == 0 }

// Equal reports whether the two boxes have identical corners.
func (b BBox) Equal(o BBox) bool {
	return b.Min.Equal(o.Min) && b.Max.Equal(o.Max)
}

// Clone returns a deep copy of the box.
func (b BBox) Clone() BBox {
	n := len(b.Min)
	corners := make(Point, n+len(b.Max))
	copy(corners, b.Min)
	copy(corners[n:], b.Max)
	return BBox{Min: corners[:n:n], Max: corners[n:]}
}

// Contains reports whether point p lies inside the box.
func (b BBox) Contains(p Point) bool {
	mustSameDim(b.Dim(), len(p))
	for d := range p {
		if p[d] < b.Min[d] || p[d] >= b.Max[d] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o is fully inside b. An empty o is contained
// in anything.
func (b BBox) ContainsBox(o BBox) bool {
	if o.Empty() {
		return true
	}
	mustSameDim(b.Dim(), o.Dim())
	for d := range b.Min {
		if o.Min[d] < b.Min[d] || o.Max[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of b and o; ok is false when they are
// disjoint (the returned box is then empty).
func (b BBox) Intersect(o BBox) (BBox, bool) {
	mustSameDim(b.Dim(), o.Dim())
	r := newBox(b.Dim())
	for d := range b.Min {
		r.Min[d] = max(b.Min[d], o.Min[d])
		r.Max[d] = min(b.Max[d], o.Max[d])
		if r.Min[d] >= r.Max[d] {
			clear(r.Min)
			clear(r.Max)
			return r, false
		}
	}
	if mutate.Enabled(mutate.GeomIntersect) && r.Max[0] > r.Min[0]+1 {
		r.Max[0]-- // seeded defect: off-by-one upper bound
	}
	return r, true
}

// Overlaps reports whether the two boxes share at least one cell, comparing
// corners only: it allocates nothing (a DHT core calls it per table entry).
func (b BBox) Overlaps(o BBox) bool {
	mustSameDim(b.Dim(), o.Dim())
	for d := range b.Min {
		if max(b.Min[d], o.Min[d]) >= min(b.Max[d], o.Max[d]) {
			return false
		}
	}
	return true
}

// Cover returns the smallest box containing both b and o.
func (b BBox) Cover(o BBox) BBox {
	if b.Empty() {
		return o.Clone()
	}
	if o.Empty() {
		return b.Clone()
	}
	mustSameDim(b.Dim(), o.Dim())
	r := newBox(b.Dim())
	for d := range b.Min {
		r.Min[d] = min(b.Min[d], o.Min[d])
		r.Max[d] = max(b.Max[d], o.Max[d])
	}
	return r
}

// Translate returns the box shifted by offset.
func (b BBox) Translate(offset Point) BBox {
	return BBox{Min: b.Min.Add(offset), Max: b.Max.Add(offset)}
}

// String renders the box in the paper's descriptor style
// "<x0,y0,z0; x1,y1,z1>" with Max shown exclusive. The text is built in a
// stack buffer, so the returned string is its one allocation.
func (b BBox) String() string {
	var stack [64]byte
	text := append(stack[:0], '<')
	for i, p := range [2]Point{b.Min, b.Max} {
		if i > 0 {
			text = append(text, "; "...)
		}
		for d, v := range p {
			if d > 0 {
				text = append(text, ',')
			}
			text = strconv.AppendInt(text, int64(v), 10)
		}
	}
	return string(append(text, '>'))
}

// Each invokes fn for every integer cell in the box in row-major order
// (last dimension fastest). fn may not retain the point across calls.
func (b BBox) Each(fn func(Point)) {
	if b.Empty() {
		return
	}
	p := b.Min.Clone()
	for {
		fn(p)
		d := b.Dim() - 1
		for d >= 0 {
			p[d]++
			if p[d] < b.Max[d] {
				break
			}
			p[d] = b.Min[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// Offset converts point p inside box b to its row-major linear offset
// relative to the box origin. It panics if p is outside b.
func (b BBox) Offset(p Point) int64 {
	if !b.Contains(p) {
		panic(fmt.Sprintf("geometry: point %v outside box %v", p, b))
	}
	var off int64
	for d := 0; d < b.Dim(); d++ {
		off = off*int64(b.Size(d)) + int64(p[d]-b.Min[d])
	}
	return off
}

// Subtract returns b minus o as a set of disjoint boxes covering exactly the
// cells of b not in o. If they do not overlap the result is {b}.
func (b BBox) Subtract(o BBox) []BBox {
	inter, ok := b.Intersect(o)
	if !ok {
		if b.Empty() {
			return nil
		}
		return []BBox{b.Clone()}
	}
	if inter.Equal(b) {
		return nil
	}
	var out []BBox
	rem := b.Clone()
	for d := 0; d < b.Dim(); d++ {
		if rem.Min[d] < inter.Min[d] {
			low := rem.Clone()
			low.Max[d] = inter.Min[d]
			out = append(out, low)
			rem.Min[d] = inter.Min[d]
		}
		if rem.Max[d] > inter.Max[d] {
			high := rem.Clone()
			high.Min[d] = inter.Max[d]
			out = append(out, high)
			rem.Max[d] = inter.Max[d]
		}
	}
	return out
}

// Expand grows the box by width cells on every side of every dimension,
// clipped to within. Negative widths shrink. The result may be empty.
func (b BBox) Expand(width int, within BBox) BBox {
	mustSameDim(b.Dim(), within.Dim())
	r := newBox(b.Dim())
	for d := range b.Min {
		r.Min[d] = max(b.Min[d]-width, within.Min[d])
		r.Max[d] = min(b.Max[d]+width, within.Max[d])
		if r.Min[d] > r.Max[d] {
			r.Min[d] = r.Max[d]
		}
	}
	return r
}

// Compare orders two boxes lexicographically by Min, then Max. It is the
// allocation-free replacement for comparing String() renderings in hot
// sorting paths (string ordering also differs from numeric ordering for
// multi-digit coordinates). Boxes of differing dimensionality order by
// dimension first.
func Compare(a, b BBox) int {
	if a.Dim() != b.Dim() {
		if a.Dim() < b.Dim() {
			return -1
		}
		return 1
	}
	for d := range a.Min {
		if a.Min[d] != b.Min[d] {
			if a.Min[d] < b.Min[d] {
				return -1
			}
			return 1
		}
	}
	for d := range a.Max {
		if a.Max[d] != b.Max[d] {
			if a.Max[d] < b.Max[d] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// AppendBox appends the wire form of b to dst — u8 dim, then per dimension
// i64 min, i64 max, big-endian: the one encoding of a box every binary codec
// in the tree uses (stored blocks, read specs, control messages). The caller
// has checked that b's rank fits the u8.
func AppendBox(dst []byte, b BBox) []byte {
	dst = append(dst, uint8(b.Dim()))
	for d := range b.Min {
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Min[d]))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Max[d]))
	}
	return dst
}

// ReadBox strictly decodes one box from the front of src and returns the
// bytes behind it. Rank 0, a short input and an empty or inverted dimension
// are errors; both corners share one allocation, made after the length check.
func ReadBox(src []byte) (BBox, []byte, error) {
	if len(src) < 1 {
		return BBox{}, nil, fmt.Errorf("geometry: box wire form: missing rank")
	}
	dim := int(src[0])
	if dim == 0 {
		return BBox{}, nil, fmt.Errorf("geometry: box wire form: rank 0")
	}
	if len(src) < 1+16*dim {
		return BBox{}, nil, fmt.Errorf("geometry: box wire form: %d bytes cannot hold a rank-%d box", len(src), dim)
	}
	b := newBox(dim)
	for d := range b.Min {
		lo := int64(binary.BigEndian.Uint64(src[1+16*d:]))
		hi := int64(binary.BigEndian.Uint64(src[9+16*d:]))
		if hi <= lo {
			return BBox{}, nil, fmt.Errorf("geometry: box wire form: dimension %d is empty or inverted [%d,%d)", d, lo, hi)
		}
		b.Min[d], b.Max[d] = int(lo), int(hi)
	}
	return b, src[1+16*dim:], nil
}

// TotalVolume sums the volumes of a box list.
func TotalVolume(boxes []BBox) int64 {
	var v int64
	for _, b := range boxes {
		v += b.Volume()
	}
	return v
}

// Disjoint reports whether no two boxes in the list overlap.
func Disjoint(boxes []BBox) bool {
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Overlaps(boxes[j]) {
				return false
			}
		}
	}
	return true
}

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("geometry: dimension mismatch %d vs %d", a, b))
	}
}
