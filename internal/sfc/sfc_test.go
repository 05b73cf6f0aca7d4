package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/insitu/cods/internal/geometry"
)

func mustCurve(t testing.TB, dim, bits int) *Curve {
	t.Helper()
	c, err := NewCurve(dim, bits)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TotalLen sums the lengths of all spans.
func TotalLen(spans []Span) uint64 {
	var n uint64
	for _, s := range spans {
		n += s.Len()
	}
	return n
}

func TestNewCurveValidation(t *testing.T) {
	if _, err := NewCurve(0, 4); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := NewCurve(3, 0); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := NewCurve(8, 8); err == nil {
		t.Error("dim*bits=64 accepted, index would not fit in 63 bits")
	}
	if _, err := NewCurve(3, 21); err != nil {
		t.Errorf("dim*bits=63 rejected: %v", err)
	}
}

func TestCurveForDomain(t *testing.T) {
	c, err := ForDomain("", []int{100, 256, 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 3 {
		t.Fatalf("Dim = %d", c.Dim())
	}
	if c.Bits() != 8 { // max extent 256 = 2^8
		t.Fatalf("Bits = %d, want 8", c.Bits())
	}
	if _, err := ForDomain("", nil); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := ForDomain("", []int{4, 0}); err == nil {
		t.Error("zero extent accepted")
	}
}

func TestEncodeDecodeRoundTripExhaustive2D(t *testing.T) {
	c := mustCurve(t, 2, 4)
	seen := make(map[uint64]bool)
	c.Domain().Each(func(p geometry.Point) {
		idx := c.Encode(p)
		if idx >= c.Total() {
			t.Fatalf("Encode(%v) = %d out of range", p, idx)
		}
		if seen[idx] {
			t.Fatalf("index %d produced twice (not injective)", idx)
		}
		seen[idx] = true
		back := c.Decode(idx)
		if !back.Equal(p) {
			t.Fatalf("Decode(Encode(%v)) = %v", p, back)
		}
	})
	if len(seen) != int(c.Total()) {
		t.Fatalf("covered %d of %d indices", len(seen), c.Total())
	}
}

func TestEncodeDecodeRoundTripExhaustive3D(t *testing.T) {
	c := mustCurve(t, 3, 3)
	c.Domain().Each(func(p geometry.Point) {
		if back := c.Decode(c.Encode(p)); !back.Equal(p) {
			t.Fatalf("round trip failed for %v -> %v", p, back)
		}
	})
}

// The defining property of the Hilbert curve: consecutive indices map to
// grid cells at Manhattan distance exactly 1.
func TestHilbertAdjacency(t *testing.T) {
	for _, cfg := range []struct{ dim, bits int }{{2, 4}, {2, 5}, {3, 3}, {4, 2}} {
		c := mustCurve(t, cfg.dim, cfg.bits)
		prev := c.Decode(0)
		for idx := uint64(1); idx < c.Total(); idx++ {
			cur := c.Decode(idx)
			dist := 0
			for d := 0; d < cfg.dim; d++ {
				diff := cur[d] - prev[d]
				if diff < 0 {
					diff = -diff
				}
				dist += diff
			}
			if dist != 1 {
				t.Fatalf("dim=%d bits=%d: indices %d,%d map to %v,%v (distance %d)",
					cfg.dim, cfg.bits, idx-1, idx, prev, cur, dist)
			}
			prev = cur
		}
	}
}

func TestEncodeOutOfRangePanics(t *testing.T) {
	c := mustCurve(t, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range coordinate")
		}
	}()
	c.Encode(geometry.Point{8, 0})
}

func TestDecodeOutOfRangePanics(t *testing.T) {
	c := mustCurve(t, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	c.Decode(c.Total())
}

func TestDim1Identityish(t *testing.T) {
	c := mustCurve(t, 1, 6)
	for i := 0; i < 64; i++ {
		p := geometry.Point{i}
		back := c.Decode(c.Encode(p))
		if !back.Equal(p) {
			t.Fatalf("1-D round trip failed: %v -> %v", p, back)
		}
	}
}

func TestSpansCoverExactlyQuery(t *testing.T) {
	c := mustCurve(t, 2, 4)
	query := geometry.NewBBox(geometry.Point{3, 5}, geometry.Point{11, 13})
	spans := c.Spans(query)
	if TotalLen(spans) != uint64(query.Volume()) {
		t.Fatalf("spans cover %d cells, query has %d", TotalLen(spans), query.Volume())
	}
	for _, s := range spans {
		for idx := s.Start; idx < s.End; idx++ {
			if !query.Contains(c.Decode(idx)) {
				t.Fatalf("span index %d decodes to %v outside query %v", idx, c.Decode(idx), query)
			}
		}
	}
	// Sorted, non-adjacent.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start <= spans[i-1].End {
			t.Fatalf("spans not merged/sorted: %v", spans)
		}
	}
}

func TestSpansFullDomainIsSingleSpan(t *testing.T) {
	c := mustCurve(t, 3, 4)
	spans := c.Spans(c.Domain())
	if len(spans) != 1 || spans[0].Start != 0 || spans[0].End != c.Total() {
		t.Fatalf("full-domain spans = %v", spans)
	}
}

func TestSpansDisjointQuery(t *testing.T) {
	c := mustCurve(t, 2, 4)
	out := c.Spans(geometry.NewBBox(geometry.Point{16, 16}, geometry.Point{20, 20}))
	if out != nil {
		t.Fatalf("query outside domain produced spans %v", out)
	}
}

func TestSpansClippedToDomain(t *testing.T) {
	c := mustCurve(t, 2, 3)
	query := geometry.NewBBox(geometry.Point{6, 6}, geometry.Point{100, 100})
	spans := c.Spans(query)
	if TotalLen(spans) != 4 { // clipped to [6,8)x[6,8)
		t.Fatalf("clipped spans cover %d cells, want 4", TotalLen(spans))
	}
}

func TestQuickSpansCoverage(t *testing.T) {
	c := mustCurve(t, 3, 3)
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		min := geometry.Point{r.Intn(8), r.Intn(8), r.Intn(8)}
		max := geometry.Point{min[0] + 1 + r.Intn(8-min[0]), min[1] + 1 + r.Intn(8-min[1]), min[2] + 1 + r.Intn(8-min[2])}
		q := geometry.NewBBox(min, max)
		spans := c.Spans(q)
		if TotalLen(spans) != uint64(q.Volume()) {
			return false
		}
		// Every cell of the query must be inside some span.
		okAll := true
		q.Each(func(p geometry.Point) {
			idx := c.Encode(p)
			found := false
			for _, s := range spans {
				if idx >= s.Start && idx < s.End {
					found = true
					break
				}
			}
			if !found {
				okAll = false
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripRandom(t *testing.T) {
	c := mustCurve(t, 3, 10)
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		p := geometry.Point{r.Intn(1024), r.Intn(1024), r.Intn(1024)}
		return c.Decode(c.Encode(p)).Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSpans(t *testing.T) {
	in := []Span{{10, 20}, {0, 5}, {5, 10}, {30, 40}, {35, 45}}
	out := MergeSpans(in)
	want := []Span{{0, 20}, {30, 45}}
	if len(out) != len(want) {
		t.Fatalf("MergeSpans = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MergeSpans = %v, want %v", out, want)
		}
	}
	if MergeSpans(nil) != nil {
		t.Fatal("MergeSpans(nil) should be nil")
	}
}

func TestRowMajorRoundTrip(t *testing.T) {
	rm, err := NewRowMajor(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rm.Domain().Each(func(p geometry.Point) {
		if back := rm.Decode(rm.Encode(p)); !back.Equal(p) {
			t.Fatalf("row-major round trip failed for %v", p)
		}
	})
}

func TestRowMajorSpansCoverage(t *testing.T) {
	rm, err := NewRowMajor(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := geometry.NewBBox(geometry.Point{2, 3}, geometry.Point{7, 9})
	spans := rm.Spans(q)
	if TotalLen(spans) != uint64(q.Volume()) {
		t.Fatalf("row-major spans cover %d, want %d", TotalLen(spans), q.Volume())
	}
	// A row-major box query in 2-D needs one span per row (rows are not
	// adjacent here because the box does not span the full last dimension).
	if len(spans) != q.Size(0) {
		t.Fatalf("row-major span count = %d, want %d", len(spans), q.Size(0))
	}
}

// Hilbert locality: the same box query should need far fewer spans than
// row-major for a well-aligned 3-D region.
func TestHilbertBeatsRowMajorOnSpanCount(t *testing.T) {
	c := mustCurve(t, 3, 6)
	rm, _ := NewRowMajor(3, 6)
	q := geometry.NewBBox(geometry.Point{16, 16, 16}, geometry.Point{32, 32, 32})
	h := len(c.Spans(q))
	r := len(rm.Spans(q))
	if h >= r {
		t.Fatalf("Hilbert spans (%d) not fewer than row-major spans (%d)", h, r)
	}
}

func BenchmarkEncode3D(b *testing.B) {
	c := mustCurve(b, 3, 16)
	p := geometry.Point{12345, 54321, 7777}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encode(p)
	}
}

func BenchmarkDecode3D(b *testing.B) {
	c := mustCurve(b, 3, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Decode(uint64(i) & (c.Total() - 1))
	}
}

func BenchmarkSpans3D(b *testing.B) {
	c := mustCurve(b, 3, 8)
	q := geometry.NewBBox(geometry.Point{10, 20, 30}, geometry.Point{100, 120, 90})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Spans(q)
	}
}

// BenchmarkSpansAndCover times the exact walk against the routing cover of
// one 24x28 box on a 512x512 grid, the cover split at the one cut of a
// two-node interval assignment, on both interleaved curves.
func BenchmarkSpansAndCover(b *testing.B) {
	q := geometry.NewBBox(geometry.Point{37, 101}, geometry.Point{61, 129})
	for _, name := range []string{CurveHilbert, CurveMorton} {
		l, err := ForDomain(name, []int{512, 512})
		if err != nil {
			b.Fatal(err)
		}
		cuts := []uint64{l.Total() / 2}
		b.Run(name+"/spans", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Spans(q)
			}
		})
		b.Run(name+"/cover", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Cover(q, cuts)
			}
		})
	}
}

func TestMortonRoundTrip(t *testing.T) {
	m, err := NewMorton(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	m.Domain().Each(func(p geometry.Point) {
		idx := m.Encode(p)
		if seen[idx] {
			t.Fatalf("morton index %d duplicated", idx)
		}
		seen[idx] = true
		if back := m.Decode(idx); !back.Equal(p) {
			t.Fatalf("morton round trip failed: %v -> %v", p, back)
		}
	})
	if len(seen) != int(m.Total()) {
		t.Fatalf("morton covered %d of %d", len(seen), m.Total())
	}
}

func TestMortonSpansCoverQuery(t *testing.T) {
	m, err := NewMorton(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := geometry.NewBBox(geometry.Point{3, 5}, geometry.Point{11, 13})
	spans := m.Spans(q)
	if TotalLen(spans) != uint64(q.Volume()) {
		t.Fatalf("morton spans cover %d, want %d", TotalLen(spans), q.Volume())
	}
	for _, s := range spans {
		for idx := s.Start; idx < s.End; idx++ {
			if !q.Contains(m.Decode(idx)) {
				t.Fatalf("span index %d outside query", idx)
			}
		}
	}
}

func TestMortonZOrderProperty(t *testing.T) {
	// In 2-D with 1 bit per dim, Z-order visits (0,0),(0,1),(1,0),(1,1)
	// with x owning the high bit (dimension 0 most significant).
	m, err := NewMorton(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []geometry.Point{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i, w := range want {
		if got := m.Decode(uint64(i)); !got.Equal(w) {
			t.Fatalf("Decode(%d) = %v, want %v", i, got, w)
		}
	}
}

// Locality ordering: Hilbert <= Morton <= row-major span counts on an
// aligned cubic query.
func TestLinearizerLocalityOrdering(t *testing.T) {
	h := mustCurve(t, 3, 6)
	m, _ := NewMorton(3, 6)
	r, _ := NewRowMajor(3, 6)
	q := geometry.NewBBox(geometry.Point{16, 16, 16}, geometry.Point{48, 48, 48})
	hs, ms, rs := len(h.Spans(q)), len(m.Spans(q)), len(r.Spans(q))
	if !(hs <= ms && ms <= rs) {
		t.Fatalf("span ordering violated: hilbert %d, morton %d, row-major %d", hs, ms, rs)
	}
}

// TestForDomainSelectsCurve: the named factory builds the right
// linearizer for each policy name, defaults to Hilbert, and rejects
// unknown names. Curves are told apart by their indices: Morton's is the
// plain bit interleave (dimension 0 most significant in each level),
// row-major's concatenates the coordinates, Hilbert's is neither.
func TestForDomainSelectsCurve(t *testing.T) {
	size := []int{8, 8}
	interleave := func(p geometry.Point) uint64 {
		var idx uint64
		for l := 2; l >= 0; l-- {
			for _, v := range p {
				idx = idx<<1 | uint64(v>>l&1)
			}
		}
		return idx
	}
	rowMajor := func(p geometry.Point) uint64 { return uint64(p[0]<<3 | p[1]) }
	for _, tc := range []struct {
		name             string
		zOrder, rowMajor bool
	}{
		{"", false, false},
		{CurveHilbert, false, false},
		{CurveMorton, true, false},
		{CurveRowMajor, false, true},
	} {
		l, err := ForDomain(tc.name, size)
		if err != nil {
			t.Fatalf("ForDomain(%q): %v", tc.name, err)
		}
		zOrder, rows := true, true
		geometry.BoxFromSize(size).Each(func(p geometry.Point) {
			idx := l.Encode(p)
			zOrder = zOrder && idx == interleave(p)
			rows = rows && idx == rowMajor(p)
		})
		if zOrder != tc.zOrder || rows != tc.rowMajor {
			t.Fatalf("ForDomain(%q): index is the bit interleave %v (want %v), row-major %v (want %v)",
				tc.name, zOrder, tc.zOrder, rows, tc.rowMajor)
		}
		if l.Dim() != 2 || l.Bits() != 3 {
			t.Fatalf("ForDomain(%q) dim=%d bits=%d, want 2/3", tc.name, l.Dim(), l.Bits())
		}
	}
	if _, err := ForDomain("peano", size); err == nil {
		t.Fatal("unknown curve name accepted")
	}
	if len(CurveNames()) != 3 {
		t.Fatalf("CurveNames() = %v, want the three policies", CurveNames())
	}
}

// TestSpansWalkAllocations pins the cost of a span walk: one 24x28 box on
// a 512x512 grid allocates the same small constant on both interleaved
// curves, which share one orthant walk and differ only in whether
// Skilling's transform runs.
func TestSpansWalkAllocations(t *testing.T) {
	q := geometry.NewBBox(geometry.Point{37, 101}, geometry.Point{61, 129})
	allocs := map[string]float64{}
	for _, name := range []string{CurveHilbert, CurveMorton} {
		l, err := ForDomain(name, []int{512, 512})
		if err != nil {
			t.Fatal(err)
		}
		if got := TotalLen(l.Spans(q)); got != uint64(q.Volume()) {
			t.Fatalf("%s: spans cover %d cells, want %d", name, got, q.Volume())
		}
		allocs[name] = testing.AllocsPerRun(20, func() { l.Spans(q) })
	}
	if h, m := allocs[CurveHilbert], allocs[CurveMorton]; h != m || h > 16 {
		t.Fatalf("uncached Spans allocations: hilbert %v, morton %v; want equal and at most 16", h, m)
	}
}

// TestSpansMatchNaiveEnumeration differentially checks the span
// decomposition of every curve against brute force: the union of the
// spans of a box must be exactly {Encode(p) : p in box clipped to the
// domain}, across aligned, unaligned, degenerate and clipped boxes.
func TestSpansMatchNaiveEnumeration(t *testing.T) {
	boxes2 := []geometry.BBox{
		geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{8, 8}),
		geometry.NewBBox(geometry.Point{1, 2}, geometry.Point{7, 5}),
		geometry.NewBBox(geometry.Point{3, 3}, geometry.Point{4, 4}),
		geometry.NewBBox(geometry.Point{-2, 5}, geometry.Point{9, 12}),
	}
	boxes3 := []geometry.BBox{
		geometry.NewBBox(geometry.Point{0, 0, 0}, geometry.Point{4, 4, 4}),
		geometry.NewBBox(geometry.Point{1, 0, 2}, geometry.Point{3, 4, 3}),
	}
	for _, name := range CurveNames() {
		for _, tc := range []struct {
			size  []int
			boxes []geometry.BBox
		}{
			{[]int{8, 8}, boxes2},
			{[]int{4, 4, 4}, boxes3},
		} {
			l, err := ForDomain(name, tc.size)
			if err != nil {
				t.Fatalf("ForDomain(%q, %v): %v", name, tc.size, err)
			}
			domain := geometry.BoxFromSize(tc.size)
			for _, box := range tc.boxes {
				covered := make(map[uint64]bool)
				for _, s := range l.Spans(box) {
					for idx := s.Start; idx < s.End; idx++ {
						if covered[idx] {
							t.Fatalf("%s %v: index %d covered twice", name, box, idx)
						}
						covered[idx] = true
					}
				}
				clipped, ok := box.Intersect(domain)
				if !ok {
					if len(covered) != 0 {
						t.Fatalf("%s %v: spans cover %d cells of a disjoint box", name, box, len(covered))
					}
					continue
				}
				var cells int
				p := make(geometry.Point, len(tc.size))
				var walk func(d int)
				walk = func(d int) {
					if d == len(tc.size) {
						cells++
						if idx := l.Encode(p); !covered[idx] {
							t.Fatalf("%s %v: spans miss cell %v at index %d", name, box, p, idx)
						}
						return
					}
					for x := clipped.Min[d]; x < clipped.Max[d]; x++ {
						p[d] = x
						walk(d + 1)
					}
				}
				walk(0)
				if len(covered) != cells {
					t.Fatalf("%s %v: spans cover %d indices, clipped box has %d cells",
						name, box, len(covered), cells)
				}
			}
		}
	}
}
