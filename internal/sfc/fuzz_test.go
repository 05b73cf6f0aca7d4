package sfc

import (
	"slices"
	"sort"
	"testing"

	"github.com/insitu/cods/internal/geometry"
)

// fuzzCurve builds the linearizer a fuzz input selects, clamping dim and
// bits into the constructible range so every input is meaningful.
func fuzzCurve(t *testing.T, kind uint8, dim, bits int) Linearizer {
	t.Helper()
	if dim < 1 {
		dim = 1
	}
	if dim > 3 {
		dim = 1 + dim%3
	}
	if bits < 1 {
		bits = 1
	}
	if bits > 6 {
		bits = 1 + bits%6
	}
	var l Linearizer
	var err error
	switch kind % 3 {
	case 0:
		l, err = NewCurve(dim, bits)
	case 1:
		l, err = NewMorton(dim, bits)
	case 2:
		l, err = NewRowMajor(dim, bits)
	}
	if err != nil {
		t.Fatalf("constructing curve kind %d dim %d bits %d: %v", kind%3, dim, bits, err)
	}
	return l
}

// FuzzLinearizerRoundTrip asserts bijectivity of every linearization
// policy: Decode inverts Encode over the whole index space, for Hilbert,
// Morton and row-major curves across the dims and bits the conformance
// scenarios shrink to.
func FuzzLinearizerRoundTrip(f *testing.F) {
	// Seed corpus: (kind, dim, bits) pairs from shrunk conformance
	// scenarios — 1-D domains of 8 and 16, 2-D and 3-D coupling grids.
	f.Add(uint8(0), 1, 3, uint64(5))
	f.Add(uint8(0), 1, 4, uint64(9))
	f.Add(uint8(0), 2, 3, uint64(37))
	f.Add(uint8(1), 2, 3, uint64(11))
	f.Add(uint8(1), 2, 4, uint64(200))
	f.Add(uint8(1), 3, 2, uint64(63))
	f.Add(uint8(2), 3, 3, uint64(511))
	f.Add(uint8(2), 1, 1, uint64(1))
	f.Fuzz(func(t *testing.T, kind uint8, dim, bits int, idx uint64) {
		l := fuzzCurve(t, kind, dim, bits)
		idx %= l.Total()
		p := l.Decode(idx)
		for d, x := range p {
			if x < 0 || x >= 1<<uint(l.Bits()) {
				t.Fatalf("decode(%d)[%d] = %d outside [0, %d)", idx, d, x, 1<<uint(l.Bits()))
			}
		}
		if back := l.Encode(p); back != idx {
			t.Fatalf("round trip broken: decode(%d) = %v encodes back to %d", idx, p, back)
		}
	})
}

// FuzzCover holds Cover to its contract against the exact spans, on every
// curve, for 1–3 dims, 1–6 bits, 0–8 cut points (repeats and the ends of
// the index space allowed) and boxes that may stick out of the grid: the
// cover is sorted and disjoint, its union contains every exact span, it
// meets exactly the parts of the partition the exact spans meet, and on
// an interleaved curve no cover span has a cut strictly inside.
func FuzzCover(f *testing.F) {
	f.Add(uint8(0), 1, 4, uint64(0x7654321), 0, 9, 0, 0, 0, 0)
	f.Add(uint8(0), 2, 5, uint64(0x1), 3, 19, 7, 23, 0, 0)
	f.Add(uint8(1), 3, 3, uint64(0x843), -2, 9, 1, 4, 3, 8)
	f.Add(uint8(2), 2, 4, uint64(0x5), 2, 7, 3, 9, 0, 0)
	f.Add(uint8(0), 3, 2, uint64(0x8888888888), 0, 4, 0, 4, 0, 4)
	f.Fuzz(func(t *testing.T, kind uint8, dim, bits int, cutSeed uint64, a0, b0, a1, b1, a2, b2 int) {
		l := fuzzCurve(t, kind, dim, bits)
		side := 1 << uint(l.Bits())
		lohi := [][2]int{{a0, b0}, {a1, b1}, {a2, b2}}
		box := geometry.BBox{Min: make(geometry.Point, l.Dim()), Max: make(geometry.Point, l.Dim())}
		for d := range box.Min {
			// Corners within two cells of the grid on either side.
			box.Min[d] = mod(lohi[d][0], side+4) - 2
			box.Max[d] = mod(lohi[d][1], side+4) - 2
		}
		// cutSeed mod 9 counts the cuts; the bytes above its low nibble
		// place them.
		cuts := make([]uint64, cutSeed%9)
		for i, r := 0, cutSeed>>4; i < len(cuts); i, r = i+1, r>>8 {
			cuts[i] = (r & 0xff) * (l.Total() + 1) / 256
		}
		slices.Sort(cuts)

		exact, cover := l.Spans(box), l.Cover(box, cuts)
		for i := 1; i < len(cover); i++ {
			if cover[i].Start < cover[i-1].End {
				t.Fatalf("cover %v not sorted and disjoint", cover)
			}
		}
		union := MergeSpans(slices.Clone(cover))
		for _, s := range exact {
			i := sort.Search(len(union), func(i int) bool { return union[i].End >= s.End })
			if i == len(union) || union[i].Start > s.Start {
				t.Fatalf("cover %v does not contain exact span %v", cover, s)
			}
		}
		// Part p is [bound(p), bound(p+1)); empty parts meet nothing.
		bound := func(p int) uint64 {
			switch {
			case p == 0:
				return 0
			case p > len(cuts):
				return l.Total()
			}
			return cuts[p-1]
		}
		meets := func(spans []Span, p int) bool {
			for _, s := range spans {
				if bound(p) < bound(p+1) && bound(p) < s.End && s.Start < bound(p+1) {
					return true
				}
			}
			return false
		}
		for p := 0; p <= len(cuts); p++ {
			if meets(exact, p) != meets(cover, p) {
				t.Fatalf("part %d [%d,%d): exact spans %v meet it %v, cover %v %v",
					p, bound(p), bound(p+1), exact, meets(exact, p), cover, meets(cover, p))
			}
		}
		if _, ok := l.(*Curve); ok {
			for _, s := range cover {
				for _, c := range cuts {
					if s.Start < c && c < s.End {
						t.Fatalf("cut %d strictly inside cover span %v", c, s)
					}
				}
			}
		}
	})
}

// mod is the non-negative remainder of a by n.
func mod(a, n int) int { return (a%n + n) % n }

// FuzzSpans asserts the span decomposition invariant for arbitrary boxes:
// total span length equals the clipped query volume, and no panic occurs.
func FuzzSpans(f *testing.F) {
	f.Add(0, 0, 0, 4, 4, 4)
	f.Add(3, 5, 1, 11, 13, 2)
	f.Add(-5, -5, -5, 20, 20, 20)
	f.Add(7, 7, 7, 7, 7, 7) // empty
	f.Fuzz(func(t *testing.T, x0, y0, z0, x1, y1, z1 int) {
		// Bound the coordinates so the test stays fast.
		clamp := func(v int) int {
			if v < -32 {
				return -32
			}
			if v > 32 {
				return 32
			}
			return v
		}
		min := geometry.Point{clamp(x0), clamp(y0), clamp(z0)}
		max := geometry.Point{clamp(x1), clamp(y1), clamp(z1)}
		q := geometry.BBox{Min: min, Max: max}
		if q.Volume() < 0 {
			return
		}
		c, err := NewCurve(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		spans := c.Spans(q)
		clipped, ok := q.Intersect(c.Domain())
		var want uint64
		if ok {
			want = uint64(clipped.Volume())
		}
		if TotalLen(spans) != want {
			t.Fatalf("spans cover %d cells, clipped query has %d", TotalLen(spans), want)
		}
	})
}
