package conformance

// The sequential reference model of CoDS semantics the conformance harness
// checks the real pipeline against (DESIGN §5e). It models the space as
// nothing but a map from (variable, version) to a set of stored n-D blocks,
// and answers gets by per-cell assembly.
//
// Everything here is deliberately naive and self-contained: region
// arithmetic is written out over BBox corners cell by cell, with no calls
// into geometry's Intersect/Subtract/Offset, no SFC, no DHT, no schedule
// caching and no transport. The two implementations share only the BBox
// struct itself, so a seeded defect in any layer of the real pipeline
// (internal/mutate) diverges from the model instead of cancelling out.

import (
	"fmt"
	"sort"

	"github.com/insitu/cods/internal/geometry"
)

// refBlock is one stored region of a variable version, together with the core
// that holds it (Owner is what the DHT invariant compares against; use -1
// when ownership is irrelevant).
type refBlock struct {
	Region geometry.BBox
	Owner  int
	Data   []float64
}

// refModel is the sequential reference store. It is not safe for concurrent
// use: the conformance driver mutates and queries it only between the
// joined phases of a scenario.
type refModel struct {
	domain geometry.BBox
	vars   map[string]map[int][]refBlock // variable -> version -> blocks
}

// newRefModel creates an empty model over the given domain.
func newRefModel(domain geometry.BBox) *refModel {
	return &refModel{domain: domain, vars: make(map[string]map[int][]refBlock)}
}

// blocks returns the block list of a variable version (nil when none).
func (m *refModel) blocks(v string, version int) []refBlock {
	return m.vars[v][version]
}

// Put stores one block. It rejects data of the wrong length, regions
// outside the domain and regions overlapping an already stored block of
// the same variable version — the producers of a valid scenario own
// disjoint blocks, and the model's per-cell Get depends on that.
func (m *refModel) Put(v string, version int, region geometry.BBox, owner int, data []float64) error {
	if volume(region) == 0 {
		return fmt.Errorf("refmodel: empty region %v for %q", region, v)
	}
	if int64(len(data)) != volume(region) {
		return fmt.Errorf("refmodel: %q data length %d != region volume %d", v, len(data), volume(region))
	}
	if !containsBox(m.domain, region) {
		return fmt.Errorf("refmodel: region %v outside domain %v", region, m.domain)
	}
	for _, b := range m.blocks(v, version) {
		if Overlaps(b.Region, region) {
			return fmt.Errorf("refmodel: region %v overlaps stored block %v of %q v%d",
				region, b.Region, v, version)
		}
	}
	if m.vars[v] == nil {
		m.vars[v] = make(map[int][]refBlock)
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	m.vars[v][version] = append(m.vars[v][version], refBlock{Region: region.Clone(), Owner: owner, Data: cp})
	return nil
}

// Discard removes the block stored for exactly (region, owner); removing
// an absent block is an error (the driver only discards what it put).
func (m *refModel) Discard(v string, version int, region geometry.BBox, owner int) error {
	blocks := m.blocks(v, version)
	for i, b := range blocks {
		if b.Owner == owner && b.Region.Equal(region) {
			m.vars[v][version] = append(blocks[:i:i], blocks[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("refmodel: no block %v owned by %d for %q v%d", region, owner, v, version)
}

// Get assembles the cells of region row-major from the stored blocks,
// cell by cell. Every cell must be covered by exactly the blocks' data;
// an uncovered cell is an error naming the shortfall, mirroring the real
// coverage error.
func (m *refModel) Get(v string, version int, region geometry.BBox) ([]float64, error) {
	vol := volume(region)
	if vol == 0 {
		return nil, fmt.Errorf("refmodel: empty get region %v for %q", region, v)
	}
	blocks := m.blocks(v, version)
	out := make([]float64, vol)
	var covered int64
	i := 0
	eachCell(region, func(p []int) {
		for _, b := range blocks {
			if containsCell(b.Region, p) {
				out[i] = b.Data[cellOffset(b.Region, p)]
				covered++
				break
			}
		}
		i++
	})
	if covered != vol {
		return nil, fmt.Errorf("refmodel: %q v%d: stored data covers %d of %d cells of %v",
			v, version, covered, vol, region)
	}
	return out, nil
}

// Owners predicts the exact answer of a DHT query for the region: every
// stored block whose region shares at least one cell with it, sorted by
// owner then region corners (the order the real lookup service returns).
func (m *refModel) Owners(v string, version int, region geometry.BBox) []refBlock {
	var out []refBlock
	for _, b := range m.blocks(v, version) {
		if Overlaps(b.Region, region) {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return compareBoxes(out[i].Region, out[j].Region) < 0
	})
	return out
}

// volume counts the cells of a box, treating any inverted extent as empty.
func volume(b geometry.BBox) int64 {
	if len(b.Min) == 0 {
		return 0
	}
	v := int64(1)
	for d := range b.Min {
		ext := int64(b.Max[d]) - int64(b.Min[d])
		if ext <= 0 {
			return 0
		}
		v *= ext
	}
	return v
}

// IntersectionVolume counts the cells two boxes share, dimension by
// dimension, without constructing the intersection box.
func IntersectionVolume(a, b geometry.BBox) int64 {
	if len(a.Min) == 0 || len(a.Min) != len(b.Min) {
		return 0
	}
	v := int64(1)
	for d := range a.Min {
		lo, hi := a.Min[d], a.Max[d]
		if b.Min[d] > lo {
			lo = b.Min[d]
		}
		if b.Max[d] < hi {
			hi = b.Max[d]
		}
		if hi <= lo {
			return 0
		}
		v *= int64(hi - lo)
	}
	return v
}

// Overlaps reports whether two boxes share at least one cell.
func Overlaps(a, b geometry.BBox) bool { return IntersectionVolume(a, b) > 0 }

// CellSet enumerates the cells of a box as "x,y,z" strings — the
// ground-truth set representation the differential fuzz target compares
// geometry's interval arithmetic against. Intended for small boxes only.
func CellSet(b geometry.BBox) map[string]bool {
	set := make(map[string]bool, volume(b))
	eachCell(b, func(p []int) {
		set[cellKey(p)] = true
	})
	return set
}

// IntersectCellSet returns the cells in both boxes, by membership test.
func IntersectCellSet(a, b geometry.BBox) map[string]bool {
	set := make(map[string]bool)
	eachCell(a, func(p []int) {
		if containsCell(b, p) {
			set[cellKey(p)] = true
		}
	})
	return set
}

// unionVolume counts the distinct cells covered by a list of boxes, by
// materializing the union cell set. Intended for small boxes only.
func unionVolume(boxes []geometry.BBox) int64 {
	set := make(map[string]bool)
	for _, b := range boxes {
		eachCell(b, func(p []int) {
			set[cellKey(p)] = true
		})
	}
	return int64(len(set))
}

func cellKey(p []int) string {
	s := ""
	for d, x := range p {
		if d > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s
}

// eachCell visits the cells of a box in row-major order (last dimension
// fastest), the layout both the model and the real space use.
func eachCell(b geometry.BBox, fn func(p []int)) {
	if volume(b) == 0 {
		return
	}
	p := make([]int, len(b.Min))
	copy(p, b.Min)
	for {
		fn(p)
		d := len(p) - 1
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

// containsCell tests cell membership against the box corners.
func containsCell(b geometry.BBox, p []int) bool {
	if len(p) != len(b.Min) {
		return false
	}
	for d := range p {
		if p[d] < b.Min[d] || p[d] >= b.Max[d] {
			return false
		}
	}
	return true
}

// containsBox reports whether inner lies fully inside outer.
func containsBox(outer, inner geometry.BBox) bool {
	if len(outer.Min) != len(inner.Min) {
		return false
	}
	for d := range outer.Min {
		if inner.Min[d] < outer.Min[d] || inner.Max[d] > outer.Max[d] {
			return false
		}
	}
	return true
}

// cellOffset converts a cell to its row-major offset inside a box.
func cellOffset(b geometry.BBox, p []int) int64 {
	var off int64
	for d := range b.Min {
		off = off*int64(b.Max[d]-b.Min[d]) + int64(p[d]-b.Min[d])
	}
	return off
}

// compareBoxes orders boxes by Min then Max corners, mirroring the sort
// the real lookup service applies to query answers.
func compareBoxes(a, b geometry.BBox) int {
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
