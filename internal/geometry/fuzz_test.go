package geometry_test

// Differential fuzzing of the region arithmetic against the conformance
// harness's naive reference implementation (internal/refmodel): geometry
// computes intersections and subtractions with interval arithmetic;
// refmodel materializes cell sets. Any divergence on the small
// boxes fuzzed here is a bug in one of them. The test lives in an external
// package because refmodel imports geometry.

import (
	"testing"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/refmodel"
)

// buildBoxes decodes the fuzz input into two same-dimension boxes with
// coordinates in [-4, 8], small enough to enumerate cells.
func buildBoxes(dimSel uint8, c [12]int8) (a, b geometry.BBox) {
	dim := int(dimSel)%3 + 1
	clamp := func(x int8) int {
		v := int(x) % 13
		if v < 0 {
			v = -v
		}
		return v - 4
	}
	mk := func(off int) geometry.BBox {
		box := geometry.BBox{Min: make(geometry.Point, dim), Max: make(geometry.Point, dim)}
		for d := 0; d < dim; d++ {
			lo, hi := clamp(c[off+2*d]), clamp(c[off+2*d+1])
			if hi < lo {
				lo, hi = hi, lo
			}
			box.Min[d], box.Max[d] = lo, hi
		}
		return box
	}
	return mk(0), mk(6)
}

func FuzzRegionOpsAgainstModel(f *testing.F) {
	// Seed corpus: shapes taken from shrunk conformance scenarios — the
	// 1-D two-block/ghost layouts of the directed mutation detections and
	// a few degenerate and 3-D cases.
	f.Add(uint8(0), int8(0), int8(9), int8(8), int8(16), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0))
	f.Add(uint8(0), int8(0), int8(2), int8(0), int8(2), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0))
	f.Add(uint8(1), int8(0), int8(8), int8(0), int8(4), int8(2), int8(6), int8(1), int8(3), int8(0), int8(0), int8(0), int8(0))
	f.Add(uint8(2), int8(-2), int8(3), int8(0), int8(5), int8(1), int8(4), int8(0), int8(3), int8(-1), int8(2), int8(2), int8(5))
	f.Add(uint8(1), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0))

	f.Fuzz(func(t *testing.T, dimSel uint8,
		c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 int8) {
		a, b := buildBoxes(dimSel, [12]int8{c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11})

		// Intersection: interval arithmetic vs cell-set membership.
		wantInter := refmodel.IntersectCellSet(a, b)
		inter, ok := a.Intersect(b)
		if ok != (len(wantInter) > 0) && !(a.Empty() || b.Empty()) {
			t.Fatalf("Intersect(%v, %v) ok=%v, model has %d shared cells", a, b, ok, len(wantInter))
		}
		if ok {
			if got := inter.Volume(); got != int64(len(wantInter)) {
				t.Fatalf("Intersect(%v, %v) = %v (%d cells), model says %d", a, b, inter, got, len(wantInter))
			}
			for cell := range refmodel.CellSet(inter) {
				if !wantInter[cell] {
					t.Fatalf("Intersect(%v, %v) contains cell %s outside the model intersection", a, b, cell)
				}
			}
		}
		if v := refmodel.IntersectionVolume(a, b); v != int64(len(wantInter)) {
			t.Fatalf("refmodel.IntersectionVolume(%v, %v) = %d, cell set has %d", a, b, v, len(wantInter))
		}

		// Subtraction: a \ b piece volumes must sum to the cell-set
		// difference, and every piece must stay inside a and outside b.
		diff := a.Subtract(b)
		wantDiff := int64(len(refmodel.CellSet(a))) - int64(len(wantInter))
		var diffVol int64
		for _, p := range diff {
			diffVol += p.Volume()
			if refmodel.IntersectionVolume(p, a) != p.Volume() {
				t.Fatalf("Subtract(%v, %v) piece %v leaves a", a, b, p)
			}
			if refmodel.Overlaps(p, b) {
				t.Fatalf("Subtract(%v, %v) piece %v still overlaps b", a, b, p)
			}
		}
		if diffVol != wantDiff {
			t.Fatalf("Subtract(%v, %v) = %d cells, model says %d", a, b, diffVol, wantDiff)
		}
	})
}
