package cods

import (
	"fmt"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// testRig bundles a machine, fabric and space over a given domain.
func testRig(t testing.TB, nodes, coresPerNode int, domainSize []int) (*cluster.Machine, *Space) {
	t.Helper()
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	sp, err := NewSpace(f, geometry.BoxFromSize(domainSize))
	if err != nil {
		t.Fatal(err)
	}
	return m, sp
}

// cellValue gives every domain cell a unique deterministic value.
func cellValue(p geometry.Point) float64 {
	v := 0.0
	for _, x := range p {
		v = v*1000 + float64(x)
	}
	return v
}

// fillRegion produces the row-major data for a region.
func fillRegion(b geometry.BBox) []float64 {
	data := make([]float64, b.Volume())
	i := 0
	b.Each(func(p geometry.Point) {
		data[i] = cellValue(p)
		i++
	})
	return data
}

// checkRegion verifies that got is the row-major content of region.
func checkRegion(t *testing.T, region geometry.BBox, got []float64) {
	t.Helper()
	if int64(len(got)) != region.Volume() {
		t.Fatalf("result length %d != region volume %d", len(got), region.Volume())
	}
	i := 0
	region.Each(func(p geometry.Point) {
		if got[i] != cellValue(p) {
			t.Fatalf("cell %v = %v, want %v", p, got[i], cellValue(p))
		}
		i++
	})
}

// putAll stores every block of a decomposition through put (sequential or
// concurrent), placing rank r of the producer on core coreOf(r).
func putAll(t *testing.T, sp *Space, dc *decomp.Decomposition, coreOf func(int) cluster.CoreID,
	v string, version int, seq bool) {
	t.Helper()
	for rank := 0; rank < dc.NumTasks(); rank++ {
		h := sp.HandleAt(coreOf(rank), 1, "put")
		for _, blk := range dc.Region(rank) {
			var err error
			if seq {
				err = h.PutSequential(v, version, blk, fillRegion(blk))
			} else {
				err = h.PutConcurrent(v, version, blk, fillRegion(blk))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSequentialPutGetBlocked(t *testing.T) {
	_, sp := testRig(t, 4, 2, []int{16, 16, 16})
	dc, err := decomp.New(decomp.Blocked, geometry.BoxFromSize([]int{16, 16, 16}), []int{2, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coreOf := func(r int) cluster.CoreID { return cluster.CoreID(r) }
	putAll(t, sp, dc, coreOf, "temp", 1, true)

	h := sp.HandleAt(7, 2, "get")
	region := geometry.NewBBox(geometry.Point{3, 3, 3}, geometry.Point{13, 12, 11})
	got, err := h.GetSequential("temp", 1, region)
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, region, got)
}

func TestSequentialPutGetCyclic(t *testing.T) {
	_, sp := testRig(t, 2, 4, []int{12, 12})
	dc, err := decomp.New(decomp.Cyclic, geometry.BoxFromSize([]int{12, 12}), []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, sp, dc, func(r int) cluster.CoreID { return cluster.CoreID(r) }, "v", 0, true)
	h := sp.HandleAt(5, 2, "get")
	region := geometry.NewBBox(geometry.Point{1, 2}, geometry.Point{9, 11})
	got, err := h.GetSequential("v", 0, region)
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, region, got)
}

func TestSequentialIncompleteCoverage(t *testing.T) {
	_, sp := testRig(t, 2, 2, []int{8, 8})
	h := sp.HandleAt(0, 1, "put")
	half := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 8})
	if err := h.PutSequential("v", 0, half, fillRegion(half)); err != nil {
		t.Fatal(err)
	}
	g := sp.HandleAt(1, 2, "get")
	if _, err := g.GetSequential("v", 0, geometry.BoxFromSize([]int{8, 8})); err == nil {
		t.Fatal("incomplete coverage not reported")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	_, sp := testRig(t, 2, 4, []int{8, 8, 8})
	dom := geometry.BoxFromSize([]int{8, 8, 8})
	dc, err := decomp.New(decomp.Blocked, dom, []int{2, 2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coreOf := func(r int) cluster.CoreID { return cluster.CoreID(r) }
	info := ProducerInfo{Decomp: dc, CoreOf: coreOf}

	var wg sync.WaitGroup
	wg.Add(1)
	var got []float64
	var getErr error
	region := geometry.NewBBox(geometry.Point{2, 2, 0}, geometry.Point{6, 6, 8})
	go func() {
		defer wg.Done()
		h := sp.HandleAt(7, 2, "get")
		got, getErr = h.GetConcurrent(info, "flux", 4, region)
	}()
	// Producer puts after the consumer is already waiting: the pull must
	// block and then complete.
	putAll(t, sp, dc, coreOf, "flux", 4, false)
	wg.Wait()
	if getErr != nil {
		t.Fatal(getErr)
	}
	checkRegion(t, region, got)
}

func TestConcurrentGetMismatchedDistribution(t *testing.T) {
	// Producer block-cyclic, consumer asks for a blocked region: the
	// schedule must touch many producer blocks and still assemble
	// correctly.
	_, sp := testRig(t, 2, 4, []int{12, 12})
	dom := geometry.BoxFromSize([]int{12, 12})
	dc, err := decomp.New(decomp.BlockCyclic, dom, []int{2, 2}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	coreOf := func(r int) cluster.CoreID { return cluster.CoreID(r) }
	putAll(t, sp, dc, coreOf, "v", 0, false)
	h := sp.HandleAt(6, 2, "get")
	region := geometry.NewBBox(geometry.Point{1, 1}, geometry.Point{11, 10})
	got, err := h.GetConcurrent(ProducerInfo{Decomp: dc, CoreOf: coreOf}, "v", 0, region)
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, region, got)
}

func TestMediumAccounting(t *testing.T) {
	// Producer on node 0 core 0; consumers on same node and different node.
	m, sp := testRig(t, 2, 2, []int{4, 4})
	blk := geometry.BoxFromSize([]int{4, 4})
	h := sp.HandleAt(0, 1, "put")
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}
	mt := m.Metrics()
	mt.Reset() // drop DHT control traffic from the put

	// Same-node get: all payload bytes via shared memory.
	same := sp.HandleAt(1, 2, "get-same")
	if _, err := same.GetSequential("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	wantBytes := blk.Volume() * ElemSize
	if got := mt.AppBytes(2, cluster.InterApp, cluster.SharedMemory); got != wantBytes {
		t.Fatalf("same-node shm bytes = %d, want %d", got, wantBytes)
	}

	// Cross-node get: all payload bytes via network.
	other := sp.HandleAt(2, 3, "get-cross")
	if _, err := other.GetSequential("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	if got := mt.AppBytes(3, cluster.InterApp, cluster.Network); got != wantBytes {
		t.Fatalf("cross-node network bytes = %d, want %d", got, wantBytes)
	}
}

func TestScheduleCache(t *testing.T) {
	_, sp := testRig(t, 2, 2, []int{8, 8})
	blk := geometry.BoxFromSize([]int{8, 8})
	for version := 0; version < 3; version++ {
		h := sp.HandleAt(0, 1, "put")
		if err := h.PutSequential("v", version, blk, fillRegion(blk)); err != nil {
			t.Fatal(err)
		}
	}
	g := sp.HandleAt(3, 2, "get")
	for version := 0; version < 3; version++ {
		if _, err := g.GetSequential("v", version, blk); err != nil {
			t.Fatal(err)
		}
	}
	if g.CacheMisses != 1 || g.CacheHits != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 2/1", g.CacheHits, g.CacheMisses)
	}

	// With the cache disabled every get recomputes.
	g2 := sp.HandleAt(2, 2, "get2")
	g2.CacheEnabled = false
	for version := 0; version < 3; version++ {
		if _, err := g2.GetSequential("v", version, blk); err != nil {
			t.Fatal(err)
		}
	}
	if g2.CacheMisses != 3 || g2.CacheHits != 0 {
		t.Fatalf("uncached hits/misses = %d/%d, want 0/3", g2.CacheHits, g2.CacheMisses)
	}
}

func TestPutValidation(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{4, 4})
	h := sp.HandleAt(0, 1, "p")
	blk := geometry.BoxFromSize([]int{4, 4})
	if err := h.PutSequential("", 0, blk, fillRegion(blk)); err == nil {
		t.Error("empty name accepted")
	}
	if err := h.PutSequential("v", 0, blk, make([]float64, 3)); err == nil {
		t.Error("wrong data length accepted")
	}
	empty := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{0, 0})
	if err := h.PutSequential("v", 0, empty, nil); err == nil {
		t.Error("empty region accepted")
	}
	if err := h.PutConcurrent("v", 0, blk, make([]float64, 5)); err == nil {
		t.Error("concurrent wrong length accepted")
	}
	if _, err := h.GetSequential("v", 0, empty); err == nil {
		t.Error("empty get region accepted")
	}
	// Double put of the same block/version collides.
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err == nil {
		t.Error("double put accepted")
	}
}

func TestDiscardFreesSlot(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{4, 4})
	h := sp.HandleAt(0, 1, "p")
	blk := geometry.BoxFromSize([]int{4, 4})
	if err := h.PutConcurrent("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}
	if err := h.Discard("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	if err := h.PutConcurrent("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatalf("put after discard failed: %v", err)
	}
}

func TestGetSubcellFromMultipleVersions(t *testing.T) {
	// Writing different data per version must keep versions isolated.
	_, sp := testRig(t, 1, 2, []int{4})
	blk := geometry.BoxFromSize([]int{4})
	h := sp.HandleAt(0, 1, "p")
	for v := 0; v < 2; v++ {
		data := make([]float64, 4)
		for i := range data {
			data[i] = float64(v*100 + i)
		}
		if err := h.PutSequential("x", v, blk, data); err != nil {
			t.Fatal(err)
		}
	}
	g := sp.HandleAt(1, 2, "g")
	for v := 0; v < 2; v++ {
		got, err := g.GetSequential("x", v, blk)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(v*100) || got[3] != float64(v*100+3) {
			t.Fatalf("version %d data = %v", v, got)
		}
	}
}

func TestCopyRegionRuns(t *testing.T) {
	srcBox := geometry.BoxFromSize([]int{4, 4})
	dstBox := geometry.NewBBox(geometry.Point{1, 1}, geometry.Point{4, 4})
	sub := geometry.NewBBox(geometry.Point{1, 1}, geometry.Point{3, 4})
	src := fillRegion(srcBox)
	dst := make([]float64, dstBox.Volume())
	copyRegion(dst, dstBox, src, srcBox, sub)
	sub.Each(func(p geometry.Point) {
		if got := dst[dstBox.Offset(p)]; got != cellValue(p) {
			t.Fatalf("dst cell %v = %v, want %v", p, got, cellValue(p))
		}
	})
}

func TestManyConcurrentGetters(t *testing.T) {
	_, sp := testRig(t, 4, 4, []int{16, 16})
	dom := geometry.BoxFromSize([]int{16, 16})
	dc, err := decomp.New(decomp.Blocked, dom, []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coreOf := func(r int) cluster.CoreID { return cluster.CoreID(r) }
	putAll(t, sp, dc, coreOf, "v", 0, true)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := sp.HandleAt(cluster.CoreID(8+i), 2, fmt.Sprintf("get%d", i))
			region := geometry.NewBBox(geometry.Point{i, 0}, geometry.Point{i + 8, 16})
			got, err := h.GetSequential("v", 0, region)
			if err != nil {
				errs[i] = err
				return
			}
			j := 0
			region.Each(func(p geometry.Point) {
				if got[j] != cellValue(p) {
					errs[i] = fmt.Errorf("cell %v wrong", p)
				}
				j++
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("getter %d: %v", i, err)
		}
	}
}

func BenchmarkGetSequential(b *testing.B) {
	m, _ := cluster.NewMachine(4, 4)
	f := transport.NewFabric(m)
	dom := geometry.BoxFromSize([]int{32, 32, 32})
	sp, err := NewSpace(f, dom)
	if err != nil {
		b.Fatal(err)
	}
	dc, err := decomp.New(decomp.Blocked, dom, []int{2, 2, 2}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for rank := 0; rank < dc.NumTasks(); rank++ {
		h := sp.HandleAt(cluster.CoreID(rank), 1, "put")
		for _, blk := range dc.Region(rank) {
			if err := h.PutSequential("v", 0, blk, make([]float64, blk.Volume())); err != nil {
				b.Fatal(err)
			}
		}
	}
	g := sp.HandleAt(9, 2, "get")
	region := geometry.NewBBox(geometry.Point{4, 4, 4}, geometry.Point{28, 28, 28})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.GetSequential("v", 0, region); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDiscardSequentialRemovesLocation(t *testing.T) {
	_, sp := testRig(t, 2, 2, []int{8, 8})
	blk := geometry.BoxFromSize([]int{8, 8})
	h := sp.HandleAt(0, 1, "p")
	if err := h.PutSequential("v", 0, blk, fillRegion(blk)); err != nil {
		t.Fatal(err)
	}
	g := sp.HandleAt(3, 2, "g")
	if _, err := g.GetSequential("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	if err := h.DiscardSequential("v", 0, blk); err != nil {
		t.Fatal(err)
	}
	if ok, _ := sp.Fabric().LocalExposed(0, bufKey("v", blk, 0)); ok {
		t.Fatal("the block is still exposed after its discard")
	}
	// A fresh handle (no cached schedule) must now fail with coverage.
	g2 := sp.HandleAt(2, 2, "g2")
	if _, err := g2.GetSequential("v", 0, blk); err == nil {
		t.Fatal("get succeeded after discard")
	}
}
