package transport

import (
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
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
