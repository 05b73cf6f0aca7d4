package apps

import (
	"math"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mpi"
	"github.com/insitu/cods/internal/transport"
)

func TestMomentsBasics(t *testing.T) {
	m := NewMoments()
	if !math.IsNaN(m.Mean()) || !math.IsNaN(m.Variance()) {
		t.Fatal("empty moments should be NaN")
	}
	m.AddAll([]float64{1, 2, 3, 4})
	if m.Count != 4 || m.Sum != 10 {
		t.Fatalf("moments = %+v", m)
	}
	if m.Mean() != 2.5 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if math.Abs(m.Variance()-1.25) > 1e-12 {
		t.Fatalf("Variance = %v", m.Variance())
	}
	if m.Min != 1 || m.Max != 4 {
		t.Fatalf("extrema = %v..%v", m.Min, m.Max)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0, 1.9, 2, 5, 9.99, -3, 42})
	// Bins of width 2: [0,2): {0,1.9}; [2,4): {2}; [4,6): {5}; [8,10): {9.99};
	// clamped: -3 -> bin 0, 42 -> bin 4.
	want := []float64{3, 1, 1, 0, 2}
	for i, b := range h.Bins {
		if b != want[i] {
			t.Fatalf("Bins = %v, want %v", h.Bins, want)
		}
	}
	if h.total() != 7 {
		t.Fatalf("total = %v", h.total())
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(-math.MaxFloat64, math.MaxFloat64, 3); err == nil {
		t.Error("range of infinite width accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

// TestHistogramOutOfRange holds samples far outside the range, infinities
// and NaN to the edge bins: the index is clamped before it is converted.
func TestHistogramOutOfRange(t *testing.T) {
	for _, c := range []struct {
		v   float64
		bin int
	}{
		{2, 3}, {-1, 0},
		{1e300, 3}, {-1e300, 0},
		{math.Inf(1), 3}, {math.Inf(-1), 0},
		{math.NaN(), 0},
	} {
		h, err := NewHistogram(0, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		h.add(c.v)
		if h.Bins[c.bin] != 1 {
			t.Errorf("add(%v): Bins = %v, want the sample in bin %d", c.v, h.Bins, c.bin)
		}
	}
}

func TestIsoCells(t *testing.T) {
	// 1-D ramp crossing iso=2.5 between cells 2 and 3.
	region := geometry.BoxFromSize([]int{5})
	data := []float64{0, 1, 2, 3, 4}
	n, err := IsoCells(region, data, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("IsoCells = %d, want 1", n)
	}
	// Uniform field: no crossings.
	n, err = IsoCells(region, []float64{7, 7, 7, 7, 7}, 2.5)
	if err != nil || n != 0 {
		t.Fatalf("uniform IsoCells = %d, %v", n, err)
	}
	if _, err := IsoCells(region, data[:3], 1); err == nil {
		t.Error("wrong data length accepted")
	}
	// 2-D checkerboard: every cell with a right/down neighbour crosses.
	board := geometry.BoxFromSize([]int{2, 2})
	n, err = IsoCells(board, []float64{0, 1, 1, 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // (0,0),(0,1),(1,0) each cross toward a neighbour
		t.Fatalf("checkerboard IsoCells = %d, want 3", n)
	}
}

// runRanks executes fn on n ranks over an in-process communicator.
func runRanks(t *testing.T, n int, fn func(c *mpi.Comm) error) {
	t.Helper()
	m, err := cluster.NewMachine(2, (n+1)/2)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	cores := make([]cluster.CoreID, n)
	for i := range cores {
		cores[i] = cluster.CoreID(i)
	}
	comms, err := mpi.NewComms(f, cores, 1, "analysis")
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestReduceMoments(t *testing.T) {
	runRanks(t, 4, func(c *mpi.Comm) error {
		local := NewMoments()
		// Rank r contributes {r, r+10}.
		local.AddAll([]float64{float64(c.Rank()), float64(c.Rank() + 10)})
		global, err := ReduceMoments(c, local)
		if err != nil {
			return err
		}
		if global.Count != 8 {
			t.Errorf("Count = %v", global.Count)
		}
		if global.Min != 0 || global.Max != 13 {
			t.Errorf("extrema = %v..%v", global.Min, global.Max)
		}
		if math.Abs(global.Mean()-6.5) > 1e-12 {
			t.Errorf("Mean = %v", global.Mean())
		}
		return nil
	})
}

func TestReduceHistogram(t *testing.T) {
	runRanks(t, 3, func(c *mpi.Comm) error {
		h, err := NewHistogram(0, 3, 3)
		if err != nil {
			return err
		}
		h.add(float64(c.Rank()) + 0.5) // each rank fills its own bin
		g, err := ReduceHistogram(c, h)
		if err != nil {
			return err
		}
		for i, b := range g.Bins {
			if b != 1 {
				t.Errorf("global bins = %v (bin %d)", g.Bins, i)
				break
			}
		}
		return nil
	})
}

func TestReduceCount(t *testing.T) {
	runRanks(t, 5, func(c *mpi.Comm) error {
		got, err := ReduceCount(c, int64(c.Rank()))
		if err != nil {
			return err
		}
		if got != 10 {
			t.Errorf("ReduceCount = %d", got)
		}
		return nil
	})
}
