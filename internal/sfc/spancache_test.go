package sfc

import (
	"sync"
	"testing"

	"github.com/insitu/cods/internal/geometry"
)

// Spans once answered repeated queries from a process-wide LRU. The cache
// is gone — DHT routing walks Cover, which needs no memo — and these tests
// keep the guarantees callers had from it: a repeated query returns the
// same spans, a returned slice belongs to the caller, curves never share
// answers, concurrent calls are safe, and SpanCacheStats reads zero.

func TestSpanCacheHitReturnsEqualSpans(t *testing.T) {
	c, err := NewCurve(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := geometry.NewBBox(geometry.Point{3, 7}, geometry.Point{19, 23})
	first := c.Spans(q)
	second := c.Spans(q)
	if len(first) != len(second) {
		t.Fatalf("repeated spans differ in length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("span %d: %v != %v", i, first[i], second[i])
		}
	}
	if hits, misses, size := SpanCacheStats(); hits != 0 || misses != 0 || size != 0 {
		t.Fatalf("stats hits=%d misses=%d size=%d, want zeros", hits, misses, size)
	}
}

// TestSpanCacheCopySemantics: a caller mutating a returned slice must not
// corrupt later answers.
func TestSpanCacheCopySemantics(t *testing.T) {
	c, _ := NewCurve(2, 4)
	q := geometry.NewBBox(geometry.Point{1, 1}, geometry.Point{7, 7})
	first := c.Spans(q)
	want := make([]Span, len(first))
	copy(want, first)
	for i := range first {
		first[i].Start = 0
		first[i].End = 0
	}
	again := c.Spans(q)
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("answer corrupted by caller mutation: span %d = %v, want %v", i, again[i], want[i])
		}
	}
}

func TestSpanCacheDisabled(t *testing.T) {
	c, _ := NewCurve(2, 4)
	q := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{5, 5})
	a := c.Spans(q)
	b := c.Spans(q)
	if TotalLen(a) != TotalLen(b) || TotalLen(a) != uint64(q.Volume()) {
		t.Fatalf("repeated query changed results: %d vs %d (volume %d)", TotalLen(a), TotalLen(b), uint64(q.Volume()))
	}
	if _, _, size := SpanCacheStats(); size != 0 {
		t.Fatalf("SpanCacheStats reports %d entries", size)
	}
}

// TestSpanCacheKeyedByCurve: curves with different bits answer the same
// query box from their own grids.
func TestSpanCacheKeyedByCurve(t *testing.T) {
	c4, _ := NewCurve(2, 4)
	c5, _ := NewCurve(2, 5)
	q := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{16, 16})
	a := c4.Spans(q) // covers c4's whole domain: one span of 256
	b := c5.Spans(q) // a quadrant of c5's domain
	if TotalLen(a) != 256 || TotalLen(b) != 256 {
		t.Fatalf("span volumes %d / %d, want 256 / 256", TotalLen(a), TotalLen(b))
	}
	if len(a) != 1 || a[0] != (Span{0, 256}) {
		t.Fatalf("c4 spans of its whole domain = %v, want [{0 256}]", a)
	}
	a2, b2 := c4.Spans(q), c5.Spans(q)
	if len(a) != len(a2) || len(b) != len(b2) {
		t.Fatalf("repeated answers differ: %v/%v vs %v/%v", a, b, a2, b2)
	}
}

// TestSpanCacheConcurrent exercises Spans from many goroutines (run under
// -race).
func TestSpanCacheConcurrent(t *testing.T) {
	c, _ := NewCurve(2, 6)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := geometry.NewBBox(
					geometry.Point{(g + i) % 32, i % 32},
					geometry.Point{(g+i)%32 + 8, i%32 + 8})
				spans := c.Spans(q)
				var want uint64
				if inter, ok := q.Intersect(c.Domain()); ok {
					want = uint64(inter.Volume())
				}
				if TotalLen(spans) != want {
					t.Errorf("goroutine %d: span volume %d, want %d", g, TotalLen(spans), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSpanCacheKeyedByCurveKind: Hilbert, Morton and row-major curves of
// identical dim/bits decompose the same box differently, and a curve
// switch mid-process (the -curve policy is selectable end to end) must
// never serve one curve's spans to another. Each curve answers twice,
// interleaved with the others, and must agree with itself.
func TestSpanCacheKeyedByCurveKind(t *testing.T) {
	h, _ := NewCurve(2, 4)
	m, _ := NewMorton(2, 4)
	r, _ := NewRowMajor(2, 4)
	q := geometry.NewBBox(geometry.Point{1, 2}, geometry.Point{7, 11})
	curves := map[string]Linearizer{"hilbert": h, "morton": m, "rowmajor": r}

	first := map[string][]Span{}
	for name, l := range curves {
		first[name] = l.Spans(q)
	}
	// The three decompositions are genuinely distinct for this box, so a
	// conflated answer could not go unnoticed.
	if len(first["hilbert"]) == len(first["morton"]) {
		hEqual := true
		for i := range first["hilbert"] {
			if first["hilbert"][i] != first["morton"][i] {
				hEqual = false
				break
			}
		}
		if hEqual {
			t.Fatal("hilbert and morton spans identical; pick a different probe box")
		}
	}
	for name, l := range curves {
		again := l.Spans(q)
		got := first[name]
		if len(got) != len(again) {
			t.Fatalf("%s: first answer %d spans, second %d", name, len(got), len(again))
		}
		for i := range again {
			if got[i] != again[i] {
				t.Fatalf("%s span %d: first %v, second %v (served another curve's answer)",
					name, i, got[i], again[i])
			}
		}
	}
}
