package apps

import (
	"fmt"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mpi"
	"github.com/insitu/cods/internal/transport"
)

func mustBlocked(t testing.TB, size, grid []int) *decomp.Decomposition {
	t.Helper()
	dc, err := decomp.New(decomp.Blocked, geometry.BoxFromSize(size), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// wrap maps a (possibly out-of-domain) point into the periodic domain.
func wrap(p geometry.Point, sizes []int) geometry.Point {
	out := p.Clone()
	for d := range out {
		out[d] = ((out[d] % sizes[d]) + sizes[d]) % sizes[d]
	}
	return out
}

func cellValue(p geometry.Point) float64 {
	v := 0.0
	for _, x := range p {
		v = v*1000 + float64(x)
	}
	return v
}

func TestBuildScheduleValidation(t *testing.T) {
	cyc, err := decomp.New(decomp.Cyclic, geometry.BoxFromSize([]int{8, 8}), []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildHaloSchedule(cyc, 1); err == nil {
		t.Error("cyclic decomposition accepted")
	}
	blk := mustBlocked(t, []int{8, 8}, []int{2, 2})
	if _, err := buildHaloSchedule(blk, -1); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := buildHaloSchedule(blk, 5); err == nil {
		t.Error("over-wide ghost accepted")
	}
	sched, err := buildHaloSchedule(blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range sched {
		if len(ex.Sends) != 0 || len(ex.Recvs) != 0 {
			t.Fatal("zero-width halo produced transfers")
		}
	}
}

// Schedule invariants: every rank's ghost margin is covered exactly once,
// every receive's source is the in-domain periodic image, and sends match
// receives pairwise.
func TestScheduleCoversGhostExactly(t *testing.T) {
	cases := []struct {
		size, grid []int
		w          int
	}{
		{[]int{12, 12}, []int{3, 2}, 2},
		{[]int{8, 8}, []int{2, 2}, 1},
		{[]int{8, 8, 8}, []int{2, 2, 2}, 2},
		{[]int{9, 6}, []int{3, 3}, 1}, // uneven blocks
		{[]int{8}, []int{4}, 2},       // 1-D ring
	}
	for ci, c := range cases {
		dc := mustBlocked(t, c.size, c.grid)
		sched, err := buildHaloSchedule(dc, c.w)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < dc.NumTasks(); r++ {
			owned := dc.Region(r)[0]
			ghost := owned.Clone()
			for d := range c.size {
				ghost.Min[d] -= c.w
				ghost.Max[d] += c.w
			}
			margin := ghost.Volume() - owned.Volume()
			var recvVol int64
			for _, p := range sched[r].Recvs {
				recvVol += p.Region.Volume()
				// Source must be the periodic image of Region.
				p.Region.Each(func(pt geometry.Point) {
					src := pt.Clone()
					for d := range src {
						src[d] = p.Source.Min[d] + (pt[d] - p.Region.Min[d])
					}
					if !wrap(pt, c.size).Equal(src) {
						t.Fatalf("case %d rank %d: ghost cell %v sourced from %v", ci, r, pt, src)
					}
				})
				// Source belongs to the peer.
				if dc.OwnerOf(p.Source.Min) != p.Peer {
					t.Fatalf("case %d rank %d: source %v not owned by peer %d", ci, r, p.Source, p.Peer)
				}
			}
			if recvVol != margin {
				t.Fatalf("case %d rank %d: receives cover %d of %d margin cells", ci, r, recvVol, margin)
			}
			// Receives are disjoint.
			boxes := make([]geometry.BBox, len(sched[r].Recvs))
			for i, p := range sched[r].Recvs {
				boxes[i] = p.Region
			}
			if !geometry.Disjoint(boxes) {
				t.Fatalf("case %d rank %d: overlapping ghost pieces", ci, r)
			}
		}
		// Send/receive volumes balance per pair.
		type pair struct{ from, to int }
		sendVol := map[pair]int64{}
		recvVol := map[pair]int64{}
		for r, ex := range sched {
			for _, p := range ex.Sends {
				sendVol[pair{r, p.Peer}] += p.Region.Volume()
			}
			for _, p := range ex.Recvs {
				recvVol[pair{p.Peer, r}] += p.Region.Volume()
			}
		}
		if len(sendVol) != len(recvVol) {
			t.Fatalf("case %d: pair sets differ", ci)
		}
		for k, v := range sendVol {
			if recvVol[k] != v {
				t.Fatalf("case %d: pair %v sends %d, receives %d", ci, k, v, recvVol[k])
			}
		}
	}
}

// Full exchange: every rank's ghost cells end up holding the periodic
// neighbour's data.
func TestRunExchangeCorrectness(t *testing.T) {
	size := []int{8, 8}
	dc := mustBlocked(t, size, []int{2, 2})
	const w = 2
	sched, err := buildHaloSchedule(dc, w)
	if err != nil {
		t.Fatal(err)
	}
	n := dc.NumTasks()
	m, err := cluster.NewMachine(1, n)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	cores := make([]cluster.CoreID, n)
	for i := range cores {
		cores[i] = cluster.CoreID(i)
	}
	comms, err := mpi.NewComms(f, cores, 1, "halo")
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			owned := dc.Region(r)[0]
			ghostBox := owned.Clone()
			for d := range size {
				ghostBox.Min[d] -= w
				ghostBox.Max[d] += w
			}
			local := make([]float64, ghostBox.Volume())
			owned.Each(func(p geometry.Point) {
				local[ghostBox.Offset(p)] = cellValue(p)
			})
			err := runHalo(comms[r], sched[r],
				func(region geometry.BBox) ([]float64, error) {
					data := make([]float64, region.Volume())
					i := 0
					region.Each(func(p geometry.Point) {
						data[i] = local[ghostBox.Offset(p)]
						i++
					})
					return data, nil
				},
				func(region geometry.BBox, data []float64) error {
					i := 0
					region.Each(func(p geometry.Point) {
						local[ghostBox.Offset(p)] = data[i]
						i++
					})
					return nil
				})
			if err != nil {
				errs[r] = err
				return
			}
			// Every ghost cell must now hold the wrapped neighbour value.
			ghostBox.Each(func(p geometry.Point) {
				if owned.Contains(p) {
					return
				}
				want := cellValue(wrap(p, size))
				if got := local[ghostBox.Offset(p)]; got != want && errs[r] == nil {
					errs[r] = fmt.Errorf("rank %d ghost %v = %v, want %v", r, p, got, want)
				}
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestRunReadSizeMismatch(t *testing.T) {
	dc := mustBlocked(t, []int{8}, []int{2})
	sched, err := buildHaloSchedule(dc, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cluster.NewMachine(1, 2)
	f := transport.NewFabric(m)
	comms, _ := mpi.NewComms(f, []cluster.CoreID{0, 1}, 1, "halo")
	var wg sync.WaitGroup
	wg.Add(1)
	var got error
	go func() {
		defer wg.Done()
		got = runHalo(comms[0], sched[0],
			func(region geometry.BBox) ([]float64, error) { return []float64{1, 2, 3, 4, 5}, nil },
			func(geometry.BBox, []float64) error { return nil })
	}()
	wg.Wait()
	if got == nil {
		t.Fatal("wrong read size accepted")
	}
}
