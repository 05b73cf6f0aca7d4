package transport

import (
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/obs"
)

// TestMediumCountersTrackReads: the fabric's atomic per-medium counters
// must agree with the mutex-guarded machine metrics.
func TestMediumCountersTrackReads(t *testing.T) {
	m, _ := cluster.NewMachine(2, 2)
	f := NewFabric(m)
	owner := f.Endpoint(0)
	if err := owner.Expose(BufKey{Name: "b", Version: 0}, "payload"); err != nil {
		t.Fatal(err)
	}
	meter := Meter{Phase: "t", Class: cluster.InterApp, DstApp: 1}
	// Core 1 shares node 0 with the owner; core 2 is on node 1.
	if err := readOne(f.Endpoint(1), 0, BufKey{Name: "b", Version: 0}, meter, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := readOne(f.Endpoint(2), 0, BufKey{Name: "b", Version: 0}, meter, 7, nil); err != nil {
		t.Fatal(err)
	}
	if got := f.MediumBytes(cluster.SharedMemory); got != 100 {
		t.Fatalf("shm bytes = %d, want 100", got)
	}
	if got := f.MediumBytes(cluster.Network); got != 7 {
		t.Fatalf("network bytes = %d, want 7", got)
	}
	if f.MediumOps(cluster.SharedMemory) != 1 || f.MediumOps(cluster.Network) != 1 {
		t.Fatalf("ops = %d/%d, want 1/1",
			f.MediumOps(cluster.SharedMemory), f.MediumOps(cluster.Network))
	}
	f.ResetMediumStats()
	if f.MediumBytes(cluster.SharedMemory) != 0 || f.MediumOps(cluster.Network) != 0 {
		t.Fatal("counters survived ResetMediumStats")
	}
}

// TestMediumCountersConcurrent: many goroutines reading through the same
// fabric must be counted exactly (run under -race).
func TestMediumCountersConcurrent(t *testing.T) {
	m, _ := cluster.NewMachine(4, 4)
	f := NewFabric(m)
	owner := f.Endpoint(0)
	if err := owner.Expose(BufKey{Name: "b", Version: 0}, "payload"); err != nil {
		t.Fatal(err)
	}
	meter := Meter{Phase: "t", Class: cluster.InterApp, DstApp: 1}
	const readers = 15
	const perReader = 40
	var wg sync.WaitGroup
	for r := 1; r <= readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := f.Endpoint(cluster.CoreID(r))
			for i := 0; i < perReader; i++ {
				if err := readOne(ep, 0, BufKey{Name: "b", Version: 0}, meter, 10, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	totalOps := f.MediumOps(cluster.SharedMemory) + f.MediumOps(cluster.Network)
	totalBytes := f.MediumBytes(cluster.SharedMemory) + f.MediumBytes(cluster.Network)
	if totalOps != readers*perReader {
		t.Fatalf("ops = %d, want %d", totalOps, readers*perReader)
	}
	if totalBytes != readers*perReader*10 {
		t.Fatalf("bytes = %d, want %d", totalBytes, readers*perReader*10)
	}
	// The metrics object must have recorded the same totals.
	mt := m.Metrics()
	rec := mt.Bytes(cluster.InterApp, cluster.SharedMemory) + mt.Bytes(cluster.InterApp, cluster.Network)
	if rec != totalBytes {
		t.Fatalf("metrics bytes %d != fabric bytes %d", rec, totalBytes)
	}
}

// TestResetMediumStatsRace: ResetMediumStats must be safe to call while
// other cores are mid-record (run under -race). The fabric counters are
// resettable, but the obs registry mirrors are monotonic — a concurrent
// reset must never make the registry lose increments.
func TestResetMediumStatsRace(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })

	m, _ := cluster.NewMachine(4, 4)
	f := NewFabric(m)
	owner := f.Endpoint(0)
	if err := owner.Expose(BufKey{Name: "b", Version: 0}, "payload"); err != nil {
		t.Fatal(err)
	}
	meter := Meter{Phase: "t", Class: cluster.InterApp, DstApp: 1}
	baseBytes := obsBytes[cluster.SharedMemory].Value() + obsBytes[cluster.Network].Value()
	baseOps := obsOps[cluster.SharedMemory].Value() + obsOps[cluster.Network].Value()

	const readers = 8
	const perReader = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.ResetMediumStats()
			}
		}
	}()
	var readersWG sync.WaitGroup
	for r := 1; r <= readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			ep := f.Endpoint(cluster.CoreID(r))
			for i := 0; i < perReader; i++ {
				if err := readOne(ep, 0, BufKey{Name: "b", Version: 0}, meter, 10, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	readersWG.Wait()
	close(stop)
	wg.Wait()

	// Fabric counters may hold any prefix of the traffic depending on when
	// the last reset landed, but never more than the true total and never a
	// torn/negative value.
	for _, md := range []cluster.Medium{cluster.SharedMemory, cluster.Network} {
		if b := f.MediumBytes(md); b < 0 || b > readers*perReader*10 {
			t.Fatalf("%v bytes = %d out of range [0,%d]", md, b, readers*perReader*10)
		}
		if ops := f.MediumOps(md); ops < 0 || ops > readers*perReader {
			t.Fatalf("%v ops = %d out of range [0,%d]", md, ops, readers*perReader)
		}
	}
	// The registry mirrors are incremented at the same call site but are
	// never reset by ResetMediumStats: the deltas must be exact.
	gotBytes := obsBytes[cluster.SharedMemory].Value() + obsBytes[cluster.Network].Value() - baseBytes
	gotOps := obsOps[cluster.SharedMemory].Value() + obsOps[cluster.Network].Value() - baseOps
	if gotBytes != readers*perReader*10 {
		t.Fatalf("registry bytes delta = %d, want %d", gotBytes, readers*perReader*10)
	}
	if gotOps != readers*perReader {
		t.Fatalf("registry ops delta = %d, want %d", gotOps, readers*perReader)
	}
	f.ResetMediumStats()
	if f.MediumBytes(cluster.SharedMemory) != 0 || f.MediumOps(cluster.Network) != 0 {
		t.Fatal("counters survived final ResetMediumStats")
	}
}
