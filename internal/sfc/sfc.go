// Package sfc implements the space-filling-curve linearization used by the
// CoDS distributed hash table. The paper linearizes the n-dimensional
// Cartesian application domain with a Hilbert curve so that a contiguous
// region of the domain maps to a small number of contiguous spans of the
// 1-D index space (Section IV-A, Figure 6).
//
// Curve implements the n-dimensional Hilbert transform following Skilling,
// "Programming the Hilbert curve" (AIP Conf. Proc. 707, 2004); with the
// transform left out the same Curve is the Morton (z-order) curve. Morton
// and the naive RowMajor linearizer are kept for the ablation benchmarks.
package sfc

import (
	"fmt"
	"slices"
	"sort"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
)

// Span is a half-open interval [Start, End) of the 1-D linearized index
// space.
type Span struct {
	Start uint64
	End   uint64
}

// Len returns the number of indices covered by the span.
func (s Span) Len() uint64 { return s.End - s.Start }

// Linearizer maps n-dimensional grid points to 1-D indices and back, and
// decomposes a box query into index spans.
type Linearizer interface {
	// Dim returns the dimensionality of the curve.
	Dim() int
	// Bits returns the number of bits per dimension.
	Bits() int
	// Total returns the size of the index space, 2^(Dim*Bits).
	Total() uint64
	// Encode maps a point to its index. Coordinates must lie in
	// [0, 2^Bits).
	Encode(p geometry.Point) uint64
	// Decode maps an index back to its point.
	Decode(idx uint64) geometry.Point
	// Spans decomposes the cells of box b (clipped to the curve's domain)
	// into a sorted, merged list of index spans.
	Spans(b geometry.BBox) []Span
	// Cover answers which parts of a partition of the index space box b
	// meets, without the exact decomposition. cuts are the partition's
	// sorted interior boundaries (repeats allowed). The sorted, disjoint
	// spans returned contain every span of Spans(b) and meet exactly the
	// parts those spans meet.
	Cover(b geometry.BBox, cuts []uint64) []Span
}

// grid is the padded cubic grid every linearizer covers: dim dimensions of
// side 2^bits.
type grid struct {
	dim  int
	bits int
}

// newGrid validates a grid's parameters. dim*bits must not exceed 63 so
// indices fit in uint64 with headroom.
func newGrid(dim, bits int) (grid, error) {
	if dim < 1 {
		return grid{}, fmt.Errorf("sfc: dimension %d < 1", dim)
	}
	if bits < 1 {
		return grid{}, fmt.Errorf("sfc: bits %d < 1", bits)
	}
	if dim*bits > 63 {
		return grid{}, fmt.Errorf("sfc: dim*bits = %d exceeds 63", dim*bits)
	}
	return grid{dim: dim, bits: bits}, nil
}

// Dim returns the grid's dimensionality.
func (g grid) Dim() int { return g.dim }

// Bits returns the bits per dimension.
func (g grid) Bits() int { return g.bits }

// Total returns the size of the 1-D index space.
func (g grid) Total() uint64 { return 1 << uint(g.dim*g.bits) }

// Domain returns the cubic grid.
func (g grid) Domain() geometry.BBox {
	size := make([]int, g.dim)
	for d := range size {
		size[d] = 1 << uint(g.bits)
	}
	return geometry.BoxFromSize(size)
}

// checkPoint panics unless p is a cell of the grid.
func (g grid) checkPoint(p geometry.Point) {
	if len(p) != g.dim {
		panic(fmt.Sprintf("sfc: point dimension %d, curve dimension %d", len(p), g.dim))
	}
	for _, v := range p {
		if v < 0 || v >= (1<<uint(g.bits)) {
			panic(fmt.Sprintf("sfc: coordinate %d out of range [0,%d)", v, 1<<uint(g.bits)))
		}
	}
}

// checkIndex panics unless idx is an index of the grid.
func (g grid) checkIndex(idx uint64) {
	if idx >= g.Total() {
		panic(fmt.Sprintf("sfc: index %d out of range [0,%d)", idx, g.Total()))
	}
}

// Curve is an n-dimensional Hilbert or Morton curve over a grid of side
// 2^bits. Both interleave coordinate bits into the index, the first
// dimension owning the most significant bit of each level; Hilbert first
// applies Skilling's transform, Morton does not.
type Curve struct {
	grid
	hilbert bool // false: Morton
}

// NewCurve creates a Hilbert curve for dim dimensions with bits bits per
// dimension. dim*bits must not exceed 63 so indices fit in uint64 with
// headroom. It returns an error for degenerate parameters.
func NewCurve(dim, bits int) (*Curve, error) { return newCurve(true, dim, bits) }

// NewMorton creates a Morton (z-order) curve: the Hilbert curve's bit
// interleave without the transform. Parameter constraints match NewCurve.
func NewMorton(dim, bits int) (*Curve, error) { return newCurve(false, dim, bits) }

func newCurve(hilbert bool, dim, bits int) (*Curve, error) {
	g, err := newGrid(dim, bits)
	if err != nil {
		return nil, err
	}
	return &Curve{grid: g, hilbert: hilbert}, nil
}

// The selectable linearization policies (DESIGN §5j). Hilbert is the
// paper's curve and the default; Morton and row-major are the ablation
// alternatives.
const (
	CurveHilbert  = "hilbert"
	CurveMorton   = "morton"
	CurveRowMajor = "rowmajor"
)

// CurveNames lists the selectable linearizer names, default first.
func CurveNames() []string { return []string{CurveHilbert, CurveMorton, CurveRowMajor} }

// ForDomain builds the named linearizer over the smallest grid covering the
// given domain sizes: each dimension padded to the next power of two, all
// sharing the largest bit width, as the Hilbert transform requires a cubic
// grid. The empty name selects Hilbert.
func ForDomain(name string, size []int) (Linearizer, error) {
	if len(size) == 0 {
		return nil, fmt.Errorf("sfc: empty domain")
	}
	bits := 1
	for _, s := range size {
		if s < 1 {
			return nil, fmt.Errorf("sfc: domain extent %d < 1", s)
		}
		for (1 << bits) < s {
			bits++
		}
	}
	switch name {
	case "", CurveHilbert:
		return NewCurve(len(size), bits)
	case CurveMorton:
		return NewMorton(len(size), bits)
	case CurveRowMajor:
		return NewRowMajor(len(size), bits)
	default:
		return nil, fmt.Errorf("sfc: unknown curve %q (want one of %v)", name, CurveNames())
	}
}

// Encode maps point p to its index.
func (c *Curve) Encode(p geometry.Point) uint64 {
	c.checkPoint(p)
	x := make([]uint64, c.dim)
	for d, v := range p {
		x[d] = uint64(v)
	}
	if c.hilbert {
		c.axesToTranspose(x)
	}
	return c.interleave(x)
}

// Decode maps an index back to its point.
func (c *Curve) Decode(idx uint64) geometry.Point {
	c.checkIndex(idx)
	x := make([]uint64, c.dim)
	c.decodeInto(idx, x)
	p := make(geometry.Point, c.dim)
	for d := range p {
		p[d] = int(x[d])
	}
	return p
}

// axesToTranspose converts coordinates in place to the "transpose" Hilbert
// representation (Skilling's AxestoTranspose).
func (c *Curve) axesToTranspose(x []uint64) {
	n := c.dim
	m := uint64(1) << uint(c.bits-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint64
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts the transpose representation in place back to
// coordinates (Skilling's TransposetoAxes).
func (c *Curve) transposeToAxes(x []uint64) {
	n := c.dim
	top := uint64(2) << uint(c.bits-1) // 2^bits
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint64(2); q != top; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs x into a single index: the most significant bit of the
// result is bit bits-1 of x[0], then bit bits-1 of x[1], and so on.
func (c *Curve) interleave(x []uint64) uint64 {
	var h uint64
	for l := c.bits - 1; l >= 0; l-- {
		for i := 0; i < c.dim; i++ {
			h = (h << 1) | ((x[i] >> uint(l)) & 1)
		}
	}
	return h
}

// decodeInto is the inverse of Encode into the caller-provided coordinates,
// which must be zeroed and of length dim.
func (c *Curve) decodeInto(h uint64, x []uint64) {
	c.deinterleaveInto(h, x)
	if c.hilbert {
		c.transposeToAxes(x)
	} else if mutate.Enabled(mutate.MortonBitSwap) {
		// Seeded defect: transposed z-order decode — dimension d reads the
		// bits of dimension dim-1-d, so Decode and the span walk disagree
		// with Encode about the bit layout.
		slices.Reverse(x)
	}
}

// deinterleaveInto is the inverse of interleave.
func (c *Curve) deinterleaveInto(h uint64, x []uint64) {
	shift := uint(c.dim*c.bits - 1)
	for l := c.bits - 1; l >= 0; l-- {
		for i := 0; i < c.dim; i++ {
			x[i] |= ((h >> shift) & 1) << uint(l)
			shift--
		}
	}
}

// Spans decomposes the query box (clipped to the curve's grid) into a
// minimal sorted list of index spans. It walks the implicit orthant tree of
// the curve: an aligned index range of length 2^(dim*level) always covers
// one axis-aligned cube of side 2^level, under Hilbert and Morton alike, so
// subtrees fully inside the query emit one span and disjoint subtrees are
// pruned.
func (c *Curve) Spans(b geometry.BBox) []Span { return MergeSpans(c.walk(b, nil, false)) }

// Cover is the same walk with a coarser stopping rule: an orthant that
// meets the query is emitted whole once its index range holds no cut
// strictly inside, so every span lies in one part of the partition. Only
// the orthants a cut passes through are split — at most len(cuts)·2^dim
// visits per level — where Spans descends to every partially covered cell.
func (c *Curve) Cover(b geometry.BBox, cuts []uint64) []Span { return c.walk(b, cuts, true) }

// walk runs the orthant walk over b, with Cover's stopping rule when cover
// is set, and returns the spans it emitted in index order, unmerged. The
// orthants lie inside the grid, so comparing them against b itself clips b
// to the grid.
func (c *Curve) walk(b geometry.BBox, cuts []uint64, cover bool) []Span {
	if b.Dim() != c.dim {
		panic(fmt.Sprintf("sfc: box dimension %d, curve dimension %d", b.Dim(), c.dim))
	}
	if b.Empty() {
		return nil
	}
	w := curveWalker{c: c, query: b, cuts: cuts, cover: cover,
		spans: make([]Span, 0, 16), x: make([]uint64, c.dim)}
	w.walk(0, c.bits)
	if mutate.Enabled(mutate.SfcSpanSplit) {
		return mutateSpans(w.spans)
	}
	return w.spans
}

// mutateSpans applies the sfc-span-split seeded defect: drop the last span,
// or shorten a lone multi-index span by one.
func mutateSpans(spans []Span) []Span {
	if len(spans) > 1 {
		return spans[:len(spans)-1]
	}
	if len(spans) == 1 && spans[0].End > spans[0].Start+1 {
		spans[0].End--
	}
	return spans
}

// curveWalker carries the query and scratch through the recursive orthant
// walk so visiting an orthant allocates nothing.
type curveWalker struct {
	c     *Curve
	query geometry.BBox
	cuts  []uint64
	cover bool // Cover's stopping rule, not Spans'
	spans []Span
	x     []uint64 // decode scratch
}

// walk visits the orthant subtree whose indices start at start with side
// 2^level. An orthant that meets the query is emitted whole when the
// stopping rule holds and split into its 2^dim children otherwise; a cell
// (level 0) always satisfies both rules.
func (w *curveWalker) walk(start uint64, level int) {
	c := w.c
	length := uint64(1) << uint(c.dim*level)
	side := 1 << uint(level)
	// The cube covered by this index range is the alignment cube of any
	// point in it; decode into scratch to avoid per-node allocation.
	x := w.x
	clear(x)
	c.decodeInto(start, x)
	stop := true // Spans: the orthant lies inside the query
	for d := 0; d < c.dim; d++ {
		cmin := int(x[d]) &^ (side - 1)
		cmax := cmin + side
		if cmax <= w.query.Min[d] || cmin >= w.query.Max[d] {
			return // disjoint from the query
		}
		if cmin < w.query.Min[d] || cmax > w.query.Max[d] {
			stop = false
		}
	}
	if w.cover {
		// Cover: no cut falls strictly inside [start, start+length).
		i, _ := slices.BinarySearch(w.cuts, start+1)
		stop = i == len(w.cuts) || w.cuts[i] >= start+length
	}
	if stop {
		w.spans = append(w.spans, Span{Start: start, End: start + length})
		return
	}
	childLen := length >> uint(c.dim)
	for j := uint64(0); j < (1 << uint(c.dim)); j++ {
		w.walk(start+j*childLen, level-1)
	}
}

// spansByStart orders spans by start index without the closure allocation
// of sort.Slice in the hot path.
type spansByStart []Span

func (s spansByStart) Len() int           { return len(s) }
func (s spansByStart) Less(i, j int) bool { return s[i].Start < s[j].Start }
func (s spansByStart) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// MergeSpans sorts spans and merges adjacent or overlapping ones in place.
func MergeSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	sort.Sort(spansByStart(spans))
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End {
			if s.End > last.End {
				last.End = s.End
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// RowMajor is a naive row-major (last dimension fastest) linearizer over
// the same padded cubic grid as Curve. It exists to quantify, in the
// ablation benchmarks, how much the Hilbert curve reduces the number of
// spans per box query. Its aligned index ranges are rows, not cubes, so it
// keeps its own span decomposition.
type RowMajor struct{ grid }

// NewRowMajor creates a row-major linearizer; the parameter constraints
// match NewCurve.
func NewRowMajor(dim, bits int) (*RowMajor, error) {
	g, err := newGrid(dim, bits)
	if err != nil {
		return nil, err
	}
	return &RowMajor{g}, nil
}

// Encode maps a point to its row-major index.
func (r *RowMajor) Encode(p geometry.Point) uint64 {
	r.checkPoint(p)
	var idx uint64
	for _, v := range p {
		idx = (idx << uint(r.bits)) | uint64(v)
	}
	return idx
}

// Decode maps a row-major index back to its point.
func (r *RowMajor) Decode(idx uint64) geometry.Point {
	r.checkIndex(idx)
	p := make(geometry.Point, r.dim)
	mask := uint64(1<<uint(r.bits)) - 1
	for d := r.dim - 1; d >= 0; d-- {
		p[d] = int(idx & mask)
		idx >>= uint(r.bits)
	}
	return p
}

// Spans decomposes a box into row-major index spans: one contiguous run per
// fixed prefix of leading coordinates.
func (r *RowMajor) Spans(b geometry.BBox) []Span {
	query, ok := b.Intersect(r.Domain())
	if !ok {
		return nil
	}
	// Runs vary along the last dimension; iterate the leading dims.
	if r.dim == 1 {
		return []Span{{Start: uint64(query.Min[0]), End: uint64(query.Max[0])}}
	}
	prefix := geometry.BBox{Min: query.Min[:r.dim-1], Max: query.Max[:r.dim-1]}
	var spans []Span
	last := r.dim - 1
	prefix.Each(func(p geometry.Point) {
		full := make(geometry.Point, r.dim)
		copy(full, p)
		full[last] = query.Min[last]
		start := r.Encode(full)
		spans = append(spans, Span{Start: start, End: start + uint64(query.Size(last))})
	})
	return MergeSpans(spans)
}

// Cover returns the exact rows: a row-major range aligns to rows, not
// cubes, so the walk has no coarser unit to stop at.
func (r *RowMajor) Cover(b geometry.BBox, _ []uint64) []Span { return r.Spans(b) }

// SpanCacheStats reports zeros: spans are no longer cached, DHT routing
// walks Cover instead. bench/tcp.go still calls it; a benchmark PR may
// drop it.
func SpanCacheStats() (hits, misses uint64, size int) { return 0, 0, 0 }

var (
	_ Linearizer = (*Curve)(nil)
	_ Linearizer = (*RowMajor)(nil)
)
