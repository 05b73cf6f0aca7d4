package sfc

import (
	"testing"

	"github.com/insitu/cods/internal/geometry"
)

// benchQueries is a repeating set of box queries shaped like an iterative
// workflow's put/get regions (same boxes every version).
func benchQueries() []geometry.BBox {
	var qs []geometry.BBox
	for bx := 0; bx < 4; bx++ {
		for by := 0; by < 4; by++ {
			qs = append(qs, geometry.NewBBox(
				geometry.Point{bx * 16, by * 16},
				geometry.Point{(bx + 1) * 16, (by + 1) * 16}))
		}
	}
	return qs
}

// BenchmarkSpansCached measures Curve.Spans with the LRU enabled (steady
// state of an iterative workflow: every query repeats).
func BenchmarkSpansCached(b *testing.B) {
	ResetSpanCache()
	SetSpanCacheCapacity(DefaultSpanCacheCapacity)
	defer func() {
		ResetSpanCache()
		SetSpanCacheCapacity(DefaultSpanCacheCapacity)
	}()
	c, err := NewCurve(2, 8)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if len(c.Spans(q)) == 0 {
				b.Fatal("empty spans")
			}
		}
	}
}

// BenchmarkSpansUncached measures the raw recursive orthant walk (cache
// disabled), the cost every repeated query paid before the cache, on both
// interleaved curves.
func BenchmarkSpansUncached(b *testing.B) {
	ResetSpanCache()
	SetSpanCacheCapacity(0)
	defer func() {
		ResetSpanCache()
		SetSpanCacheCapacity(DefaultSpanCacheCapacity)
	}()
	for _, name := range []string{CurveHilbert, CurveMorton} {
		b.Run(name, func(b *testing.B) {
			c, err := ForDomain(name, []int{256, 256})
			if err != nil {
				b.Fatal(err)
			}
			qs := benchQueries()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if len(c.Spans(q)) == 0 {
						b.Fatal("empty spans")
					}
				}
			}
		})
	}
}
