package geometry

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// box builds a BBox from interleaved corners: box(x0,y0, x1,y1) in 2-D,
// box(x0,y0,z0, x1,y1,z1) in 3-D.
func box(coords ...int) BBox {
	n := len(coords) / 2
	return NewBBox(Point(coords[:n]), Point(coords[n:]))
}

func TestPointEqual(t *testing.T) {
	if !(Point{1, 2, 3}).Equal(Point{1, 2, 3}) {
		t.Fatal("equal points reported unequal")
	}
	if (Point{1, 2}).Equal(Point{1, 2, 3}) {
		t.Fatal("different-dimension points reported equal")
	}
	if (Point{1, 2, 3}).Equal(Point{1, 2, 4}) {
		t.Fatal("different points reported equal")
	}
}

func TestPointAdd(t *testing.T) {
	got := (Point{1, 2, 3}).Add(Point{10, -2, 0})
	if !got.Equal(Point{11, 0, 3}) {
		t.Fatalf("Add = %v", got)
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestVolume(t *testing.T) {
	cases := []struct {
		b    BBox
		want int64
	}{
		{BoxFromSize([]int{4, 4, 4}), 64},
		{NewBBox(Point{2, 2}, Point{5, 3}), 3},
		{NewBBox(Point{0, 0}, Point{0, 10}), 0},
		{NewBBox(Point{5, 5}, Point{2, 8}), 0}, // inverted
	}
	for _, c := range cases {
		if got := c.b.Volume(); got != c.want {
			t.Errorf("Volume(%v) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := box(0, 0, 10, 10)
	b := box(5, 5, 15, 15)
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(box(5, 5, 10, 10)) {
		t.Fatalf("Intersect = %v ok=%v", got, ok)
	}
	c := box(10, 0, 20, 10) // shares only the exclusive edge
	if _, ok := a.Intersect(c); ok {
		t.Fatal("boxes touching at an exclusive boundary must not intersect")
	}
}

func TestIntersectCommutative(t *testing.T) {
	a := box(0, 3, 9, 11)
	b := box(2, 0, 40, 7)
	ab, ok1 := a.Intersect(b)
	ba, ok2 := b.Intersect(a)
	if ok1 != ok2 || !ab.Equal(ba) {
		t.Fatalf("Intersect not commutative: %v vs %v", ab, ba)
	}
}

func TestContains(t *testing.T) {
	b := box(0, 0, 4, 4)
	if !b.Contains(Point{0, 0}) || !b.Contains(Point{3, 3}) {
		t.Fatal("corner containment wrong")
	}
	if b.Contains(Point{4, 0}) || b.Contains(Point{0, -1}) {
		t.Fatal("exclusive upper bound violated")
	}
}

func TestContainsBox(t *testing.T) {
	outer := box(0, 0, 10, 10)
	if !outer.ContainsBox(box(2, 2, 8, 8)) {
		t.Fatal("inner box not contained")
	}
	if outer.ContainsBox(box(2, 2, 11, 8)) {
		t.Fatal("overflowing box reported contained")
	}
	empty := NewBBox(Point{3, 3}, Point{3, 3})
	if !outer.ContainsBox(empty) {
		t.Fatal("empty box must be contained in anything")
	}
}

func TestCover(t *testing.T) {
	a := box(0, 0, 2, 2)
	b := box(5, 5, 7, 9)
	got := a.Cover(b)
	if !got.Equal(box(0, 0, 7, 9)) {
		t.Fatalf("Cover = %v", got)
	}
}

func TestTranslate(t *testing.T) {
	b := box(1, 1, 3, 3).Translate(Point{10, -1})
	if !b.Equal(box(11, 0, 13, 2)) {
		t.Fatalf("Translate = %v", b)
	}
}

func TestEachVisitsAllCellsOnce(t *testing.T) {
	b := box(1, 2, 4, 5) // 3x3
	seen := map[string]int{}
	b.Each(func(p Point) { seen[p.String()]++ })
	if len(seen) != 9 {
		t.Fatalf("Each visited %d distinct cells, want 9", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s visited %d times", k, n)
		}
	}
}

func TestEachEmptyBox(t *testing.T) {
	calls := 0
	NewBBox(Point{0}, Point{0}).Each(func(Point) { calls++ })
	if calls != 0 {
		t.Fatal("Each must not visit cells of an empty box")
	}
}

func TestOffsetRowMajor(t *testing.T) {
	b := box(0, 0, 2, 3)
	want := int64(0)
	b.Each(func(p Point) {
		if got := b.Offset(p); got != want {
			t.Fatalf("Offset(%v) = %d, want %d", p, got, want)
		}
		want++
	})
}

func TestSubtractFullOverlap(t *testing.T) {
	b := box(0, 0, 4, 4)
	if rest := b.Subtract(b); len(rest) != 0 {
		t.Fatalf("b - b = %v, want empty", rest)
	}
}

func TestSubtractDisjoint(t *testing.T) {
	b := box(0, 0, 4, 4)
	rest := b.Subtract(box(10, 10, 12, 12))
	if len(rest) != 1 || !rest[0].Equal(b) {
		t.Fatalf("disjoint subtract = %v", rest)
	}
}

func TestSubtractPartial(t *testing.T) {
	b := box(0, 0, 4, 4)
	hole := box(1, 1, 3, 3)
	rest := b.Subtract(hole)
	if !Disjoint(rest) {
		t.Fatal("Subtract produced overlapping pieces")
	}
	if got := TotalVolume(rest); got != b.Volume()-hole.Volume() {
		t.Fatalf("Subtract volume = %d, want %d", got, b.Volume()-hole.Volume())
	}
	for _, r := range rest {
		if r.Overlaps(hole) {
			t.Fatalf("piece %v overlaps the hole", r)
		}
	}
}

func TestDisjoint(t *testing.T) {
	if !Disjoint([]BBox{box(0, 0, 2, 2), box(2, 0, 4, 2)}) {
		t.Fatal("adjacent boxes reported overlapping")
	}
	if Disjoint([]BBox{box(0, 0, 3, 3), box(2, 2, 4, 4)}) {
		t.Fatal("overlapping boxes reported disjoint")
	}
}

func TestStringFormats(t *testing.T) {
	if got := (Point{0, 1, 2}).String(); got != "(0,1,2)" {
		t.Fatalf("Point.String = %q", got)
	}
	if got := box(0, 0, 0, 10, 10, 20).String(); got != "<0,0,0; 10,10,20>" {
		t.Fatalf("BBox.String = %q", got)
	}
}

// TestBoxString pins BBox.String byte for byte — buffer keys are built from
// it, and the frozen benchmark rebuilds the same text on its own — over
// 1-, 2- and 3-D boxes, negative and multi-digit corners, the zero box and
// one whose text outgrows the stack buffer.
func TestBoxString(t *testing.T) {
	for _, tc := range []struct {
		b    BBox
		want string
	}{
		{BBox{}, "<; >"},
		{box(3, 7), "<3; 7>"},
		{box(0, 0, 16, 16), "<0,0; 16,16>"},
		{box(-5, -12, -1, 4), "<-5,-12; -1,4>"},
		{box(496, 32, 512, 48), "<496,32; 512,48>"},
		{box(0, 0, 0, 10, 10, 20), "<0,0,0; 10,10,20>"},
		{box(-100, 0, -3, -99, 1, 2), "<-100,0,-3; -99,1,2>"},
		{box(-1<<40, 0, 1<<40, -1<<40+1, 1, 1<<40+1),
			"<-1099511627776,0,1099511627776; -1099511627775,1,1099511627777>"},
	} {
		if got := tc.b.String(); got != tc.want {
			t.Errorf("String of %#v = %q, want %q", tc.b, got, tc.want)
		}
	}
}

// TestBoxAllocations: String makes its text in one allocation, and the box
// builders put both corners in one backing array whose halves are capped,
// so appending to Min never writes into Max.
func TestBoxAllocations(t *testing.T) {
	a, b := box(0, 0, 0, 128, 128, 128), box(64, 64, 64, 192, 192, 192)
	if n := testing.AllocsPerRun(100, func() { stringSink = a.String() }); n != 1 {
		t.Errorf("String allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { boxSink, _ = a.Intersect(b) }); n != 1 {
		t.Errorf("Intersect of overlapping boxes allocates %v times, want 1", n)
	}
	far := box(200, 0, 0, 201, 1, 1)
	if n := testing.AllocsPerRun(100, func() { boxSink, _ = a.Intersect(far) }); n != 1 {
		t.Errorf("a disjoint Intersect allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { boxSink = a.Clone() }); n != 1 {
		t.Errorf("Clone allocates %v times, want 1", n)
	}
	inter, _ := a.Intersect(b)
	for name, got := range map[string]BBox{
		"NewBBox":   NewBBox(Point{1, 2}, Point{3, 4}),
		"Clone":     a.Clone(),
		"Intersect": inter,
		"Cover":     a.Cover(b),
		"Expand":    a.Expand(1, BoxFromSize([]int{256, 256, 256})),
		"BoxFrom":   BoxFromSize([]int{4, 4}),
	} {
		max := got.Max.Clone()
		got.Min = append(got.Min, 99)
		if !got.Max.Equal(max) {
			t.Errorf("%s: appending to Min changed Max to %v", name, got.Max)
		}
	}
}

var (
	stringSink string
	boxSink    BBox
)

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	a := box(0, 0, 1, 1)
	b := NewBBox(Point{0}, Point{1})
	a.Intersect(b)
}

// randomBox produces a (possibly empty) box within [-20,20)^dim.
func randomBox(r *rand.Rand, dim int) BBox {
	min := make(Point, dim)
	max := make(Point, dim)
	for d := 0; d < dim; d++ {
		a := r.Intn(40) - 20
		b := r.Intn(40) - 20
		if a > b {
			a, b = b, a
		}
		min[d], max[d] = a, b
	}
	return BBox{Min: min, Max: max}
}

func TestQuickIntersectVolumeNeverLarger(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a := randomBox(r, 3)
		b := randomBox(r, 3)
		inter, ok := a.Intersect(b)
		if !ok {
			return inter.Empty()
		}
		return inter.Volume() <= a.Volume() && inter.Volume() <= b.Volume() &&
			a.ContainsBox(inter) && b.ContainsBox(inter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubtractPartition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a := randomBox(r, 2)
		b := randomBox(r, 2)
		rest := a.Subtract(b)
		if !Disjoint(rest) {
			return false
		}
		inter, _ := a.Intersect(b)
		if TotalVolume(rest) != a.Volume()-inter.Volume() {
			return false
		}
		for _, piece := range rest {
			if !a.ContainsBox(piece) || piece.Overlaps(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoverContainsBoth(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a := randomBox(r, 3)
		b := randomBox(r, 3)
		c := a.Cover(b)
		if a.Empty() && b.Empty() {
			return true
		}
		if a.Empty() {
			return c.Equal(b)
		}
		if b.Empty() {
			return c.Equal(a)
		}
		return c.ContainsBox(a) && c.ContainsBox(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersect(b *testing.B) {
	x := box(0, 0, 0, 128, 128, 128)
	y := box(64, 64, 64, 192, 192, 192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Intersect(y)
	}
}

func BenchmarkEach64(b *testing.B) {
	x := box(0, 0, 0, 4, 4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		x.Each(func(Point) { n++ })
	}
}

func TestExpand(t *testing.T) {
	within := box(0, 0, 16, 16)
	b := box(4, 4, 8, 8)
	got := b.Expand(2, within)
	if !got.Equal(box(2, 2, 10, 10)) {
		t.Fatalf("Expand = %v", got)
	}
	// Clipping at the domain edge.
	edge := box(0, 14, 4, 16).Expand(3, within)
	if !edge.Equal(box(0, 11, 7, 16)) {
		t.Fatalf("clipped Expand = %v", edge)
	}
	// Negative width shrinks, possibly to empty.
	if !b.Expand(-2, within).Empty() {
		t.Fatal("shrink to empty failed")
	}
	if got := box(4, 4, 12, 12).Expand(-1, within); !got.Equal(box(5, 5, 11, 11)) {
		t.Fatalf("shrink = %v", got)
	}
}

func TestQuickExpandContainsOriginal(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	within := box(-20, -20, 20, 20)
	f := func() bool {
		b := randomBox(r, 2)
		if b.Empty() {
			return true
		}
		g := b.Expand(1+r.Intn(3), within)
		inner, _ := b.Intersect(within)
		return g.ContainsBox(inner) && within.ContainsBox(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlapsMatchesIntersect holds Overlaps, which compares corners only,
// to the answer Intersect gives — on random boxes, empty and touching ones
// included — and to its two contracts: it allocates nothing, and boxes of
// different rank are still a programming error.
func TestOverlapsMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		dim := 1 + r.Intn(3)
		a, b := randomBox(r, dim), randomBox(r, dim)
		if _, want := a.Intersect(b); a.Overlaps(b) != want || b.Overlaps(a) != want {
			t.Fatalf("%v overlaps %v = %v, Intersect says %v", a, b, a.Overlaps(b), want)
		}
	}
	x, y := box(0, 0, 0, 128, 128, 128), box(64, 64, 64, 192, 192, 192)
	if n := testing.AllocsPerRun(100, func() { overlapSink = x.Overlaps(y) }); n != 0 {
		t.Fatalf("Overlaps allocates %v times per call, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	x.Overlaps(box(0, 1))
}

var overlapSink bool

func BenchmarkOverlaps(b *testing.B) {
	x := box(0, 0, 0, 128, 128, 128)
	y := box(64, 64, 64, 192, 192, 192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		overlapSink = x.Overlaps(y)
	}
}

// TestBoxWireForm pins the one box codec: encode/decode is the identity
// and hands back what follows the box, both corners come out of a single
// allocation, and the decoder rejects rank 0, every truncation, and a
// dimension that is empty or inverted.
func TestBoxWireForm(t *testing.T) {
	want := box(-3, 4, 1<<40, 5, 9, 1<<40+1)
	wire := AppendBox([]byte{0xAA}, want)[1:]
	if len(wire) != 1+16*3 {
		t.Fatalf("a rank-3 box takes %d bytes, want %d", len(wire), 1+16*3)
	}
	got, rest, err := ReadBox(append(wire[:len(wire):len(wire)], 0xBB, 0xCC))
	if err != nil || !got.Equal(want) || len(rest) != 2 || rest[0] != 0xBB {
		t.Fatalf("ReadBox = %v, rest %x, err %v; want %v and the two bytes behind it", got, rest, err, want)
	}
	if got.Min = append(got.Min, 99); got.Max[0] == 99 {
		t.Fatal("appending to Min overwrote Max: the corners must not share capacity")
	}
	if n := testing.AllocsPerRun(100, func() { ReadBox(wire) }); n != 1 {
		t.Fatalf("ReadBox allocates %v times per box, want 1", n)
	}
	for n := 0; n < len(wire); n++ {
		if _, _, err := ReadBox(wire[:n]); err == nil {
			t.Fatalf("ReadBox accepted a %d-byte prefix of a %d-byte box", n, len(wire))
		}
	}
	for name, b := range map[string]BBox{
		"rank 0":   {},
		"empty":    box(0, 0, 4, 0),
		"inverted": box(0, 5, 4, 2),
	} {
		if _, _, err := ReadBox(AppendBox(nil, b)); err == nil {
			t.Errorf("ReadBox accepted a %s box", name)
		}
	}
}
