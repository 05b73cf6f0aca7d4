package conformance

import (
	"strings"
	"testing"

	"github.com/insitu/cods/internal/geometry"
)

func box(min, max []int) geometry.BBox {
	return geometry.BBox{Min: min, Max: max}
}

func fill(b geometry.BBox, base float64) []float64 {
	data := make([]float64, volume(b))
	for i := range data {
		data[i] = base + float64(i)
	}
	return data
}

func TestPutGetRoundTrip(t *testing.T) {
	domain := box([]int{0, 0}, []int{8, 8})
	m := newRefModel(domain)
	left := box([]int{0, 0}, []int{8, 4})
	right := box([]int{0, 4}, []int{8, 8})
	if err := m.Put("u", 0, left, 1, fill(left, 100)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("u", 0, right, 2, fill(right, 200)); err != nil {
		t.Fatal(err)
	}
	// A whole-domain get stitches the two blocks back together row-major.
	got, err := m.Get("u", 0, domain)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is left's first 4 cells then right's first 4 cells.
	want := []float64{100, 101, 102, 103, 200, 201, 202, 203}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("cell %d = %v, want %v", i, got[i], w)
		}
	}
	// A sub-region crossing the seam.
	sub := box([]int{2, 2}, []int{3, 6})
	got, err = m.Get("u", 0, sub)
	if err != nil {
		t.Fatal(err)
	}
	// Row 2 of left is cells 8..11 (base 100), of right 8..11 (base 200).
	want = []float64{110, 111, 208, 209}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("seam cell %d = %v, want %v", i, got[i], w)
		}
	}
}

func TestGetReportsCoverageShortfall(t *testing.T) {
	domain := box([]int{0}, []int{8})
	m := newRefModel(domain)
	if err := m.Put("u", 0, box([]int{0}, []int{4}), 0, fill(box([]int{0}, []int{4}), 0)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Get("u", 0, box([]int{2}, []int{6}))
	if err == nil || !strings.Contains(err.Error(), "covers 2 of 4") {
		t.Fatalf("err = %v, want coverage shortfall", err)
	}
	// Wrong version: nothing stored at all.
	if _, err := m.Get("u", 1, box([]int{0}, []int{2})); err == nil {
		t.Fatal("get of unstored version succeeded")
	}
}

func TestPutValidation(t *testing.T) {
	domain := box([]int{0, 0}, []int{4, 4})
	m := newRefModel(domain)
	b := box([]int{0, 0}, []int{2, 2})
	if err := m.Put("u", 0, b, 0, fill(b, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("u", 0, box([]int{1, 1}, []int{3, 3}), 1, fill(b, 0)); err == nil {
		t.Fatal("overlapping put accepted")
	}
	if err := m.Put("u", 0, box([]int{2, 2}, []int{6, 6}), 1, make([]float64, 16)); err == nil {
		t.Fatal("out-of-domain put accepted")
	}
	if err := m.Put("u", 0, box([]int{2, 2}, []int{3, 3}), 1, nil); err == nil {
		t.Fatal("wrong-length put accepted")
	}
	// Same region at a different version is independent.
	if err := m.Put("u", 1, b, 0, fill(b, 9)); err != nil {
		t.Fatal(err)
	}
}

func TestDiscardAndOwners(t *testing.T) {
	domain := box([]int{0}, []int{8})
	m := newRefModel(domain)
	a, b := box([]int{0}, []int{4}), box([]int{4}, []int{8})
	if err := m.Put("u", 0, a, 3, fill(a, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("u", 0, b, 1, fill(b, 0)); err != nil {
		t.Fatal(err)
	}
	owners := m.Owners("u", 0, box([]int{3}, []int{5}))
	if len(owners) != 2 || owners[0].Owner != 1 || owners[1].Owner != 3 {
		t.Fatalf("owners = %+v, want owner-sorted {1,3}", owners)
	}
	if got := m.Owners("u", 0, box([]int{5}, []int{6})); len(got) != 1 || got[0].Owner != 1 {
		t.Fatalf("owners = %+v, want only owner 1", got)
	}
	if err := m.Discard("u", 0, a, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Discard("u", 0, a, 3); err == nil {
		t.Fatal("double discard succeeded")
	}
	if got := m.Owners("u", 0, box([]int{3}, []int{5})); len(got) != 1 {
		t.Fatalf("owners after discard = %+v", got)
	}
	// Restage at a new owner is visible.
	if err := m.Put("u", 0, a, 7, fill(a, 0)); err != nil {
		t.Fatal(err)
	}
	if got := m.Owners("u", 0, a); len(got) != 1 || got[0].Owner != 7 {
		t.Fatalf("owners after restage = %+v", got)
	}
}

func TestNaiveArithmeticAgreesWithGeometry(t *testing.T) {
	// The naive helpers must agree with the package geometry operations on
	// a brute-force sweep of small boxes; the conformance harness depends
	// on the two implementations being independent but equivalent.
	boxes := []geometry.BBox{
		box([]int{0, 0}, []int{4, 4}),
		box([]int{2, 1}, []int{5, 3}),
		box([]int{4, 4}, []int{6, 6}),
		box([]int{0, 3}, []int{1, 9}),
		box([]int{3, 3}, []int{3, 5}), // empty
	}
	for _, a := range boxes {
		if got, want := volume(a), a.Volume(); got != want {
			t.Fatalf("volume(%v) = %d, geometry says %d", a, got, want)
		}
		for _, b := range boxes {
			gotV := IntersectionVolume(a, b)
			inter, ok := a.Intersect(b)
			wantV := int64(0)
			if ok {
				wantV = inter.Volume()
			}
			if gotV != wantV {
				t.Fatalf("IntersectionVolume(%v, %v) = %d, geometry says %d", a, b, gotV, wantV)
			}
			if Overlaps(a, b) != ok {
				t.Fatalf("Overlaps(%v, %v) disagrees with geometry", a, b)
			}
			if !a.Empty() && !b.Empty() {
				if got := int64(len(IntersectCellSet(a, b))); got != wantV {
					t.Fatalf("IntersectCellSet(%v, %v) has %d cells, want %d", a, b, got, wantV)
				}
			}
		}
	}
	// Union of disjoint pieces equals total volume; overlapping pieces
	// count shared cells once.
	u := unionVolume([]geometry.BBox{boxes[0], boxes[2]})
	if u != boxes[0].Volume()+boxes[2].Volume() {
		t.Fatalf("disjoint union = %d", u)
	}
	u = unionVolume([]geometry.BBox{boxes[0], boxes[1]})
	if want := boxes[0].Volume() + boxes[1].Volume() - IntersectionVolume(boxes[0], boxes[1]); u != want {
		t.Fatalf("overlapping union = %d, want %d", u, want)
	}
}
