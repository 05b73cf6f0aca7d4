package cluster

import (
	"sync"
	"testing"
)

func machine(t testing.TB, nodes, cores int) *Machine {
	t.Helper()
	m, err := NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(0, 12); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewMachine(4, 0); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestCoreNodeMapping(t *testing.T) {
	m := machine(t, 4, 12)
	if m.TotalCores() != 48 {
		t.Fatalf("TotalCores = %d", m.TotalCores())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(11) != 0 || m.NodeOf(12) != 1 || m.NodeOf(47) != 3 {
		t.Fatal("NodeOf mapping wrong")
	}
	if m.CoreOn(2, 5) != CoreID(29) {
		t.Fatalf("CoreOn(2,5) = %d", m.CoreOn(2, 5))
	}
	if !m.SameNode(12, 23) || m.SameNode(11, 12) {
		t.Fatal("SameNode wrong")
	}
}

func TestCoreOutOfRangePanics(t *testing.T) {
	m := machine(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.NodeOf(8)
}

func TestPlacementAssign(t *testing.T) {
	m := machine(t, 2, 2)
	p := NewPlacement(m)
	t1 := TaskID{App: 1, Rank: 0}
	t2 := TaskID{App: 2, Rank: 0}
	if err := p.Assign(t1, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(t2, 0); err == nil {
		t.Fatal("double-booked core accepted")
	}
	if err := p.Assign(t1, 1); err == nil {
		t.Fatal("double placement of a task accepted")
	}
	if err := p.Assign(t2, 99); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	c, ok := p.CoreOf(t1)
	if !ok || c != 0 {
		t.Fatalf("CoreOf = %d, %v", c, ok)
	}
	n, ok := p.NodeOfTask(t1)
	if !ok || n != 0 {
		t.Fatalf("NodeOfTask = %d, %v", n, ok)
	}
	if _, ok := p.NodeOfTask(TaskID{App: 9, Rank: 9}); ok {
		t.Fatal("unplaced task reported placed")
	}
}

func TestPlacementTasksSortedAndFreeCores(t *testing.T) {
	m := machine(t, 1, 4)
	p := NewPlacement(m)
	if err := p.Assign(TaskID{App: 2, Rank: 0}, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(TaskID{App: 1, Rank: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(TaskID{App: 1, Rank: 0}, 0); err != nil {
		t.Fatal(err)
	}
	tasks := p.Tasks()
	want := []TaskID{{1, 0}, {1, 1}, {2, 0}}
	for i := range want {
		if tasks[i] != want[i] {
			t.Fatalf("Tasks = %v", tasks)
		}
	}
	// Core 2 is the one left free: it alone still takes a task.
	if err := p.Assign(TaskID{App: 3, Rank: 0}, 2); err != nil {
		t.Fatalf("free core 2 refused: %v", err)
	}
	if p.Len() != m.TotalCores() {
		t.Fatalf("%d tasks placed on %d cores", p.Len(), m.TotalCores())
	}
}

func TestMetricsRecordAndQuery(t *testing.T) {
	mt := NewMetrics()
	mt.Record("couple:2", InterApp, Network, 2, 0, 1, 100)
	mt.Record("couple:2", InterApp, SharedMemory, 2, 1, 1, 50)
	mt.Record("halo:1", IntraApp, Network, 1, 0, 2, 7)
	if mt.Bytes(InterApp, Network) != 100 {
		t.Fatalf("inter/network = %d", mt.Bytes(InterApp, Network))
	}
	if mt.Bytes(InterApp, SharedMemory) != 50 {
		t.Fatalf("inter/shm = %d", mt.Bytes(InterApp, SharedMemory))
	}
	if mt.Bytes(IntraApp, Network) != 7 {
		t.Fatalf("intra/network = %d", mt.Bytes(IntraApp, Network))
	}
	if mt.AppBytes(2, InterApp, Network) != 100 || mt.AppBytes(2, InterApp, SharedMemory) != 50 {
		t.Fatal("per-app inter counters wrong")
	}
	if mt.AppBytes(1, IntraApp, Network) != 7 {
		t.Fatal("per-app intra counters wrong")
	}
	if mt.AppBytes(99, InterApp, Network) != 0 {
		t.Fatal("unknown app should read 0")
	}
}

func TestMetricsFlowsFilter(t *testing.T) {
	mt := NewMetrics()
	mt.Record("couple:CAP2", InterApp, Network, 2, 0, 1, 10)
	mt.Record("halo:CAP1", IntraApp, Network, 1, 1, 0, 20)
	all := mt.Flows("")
	if len(all) != 2 {
		t.Fatalf("Flows(\"\") = %d entries", len(all))
	}
	couple := mt.Flows("couple:")
	if len(couple) != 1 || couple[0].Bytes != 10 {
		t.Fatalf("Flows(couple:) = %v", couple)
	}
}

func TestMetricsReset(t *testing.T) {
	mt := NewMetrics()
	mt.Record("x", InterApp, Network, 1, 0, 1, 5)
	mt.Reset()
	if mt.Bytes(InterApp, Network) != 0 || len(mt.Flows("")) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	mt := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				mt.Record("p", InterApp, Network, 3, 0, 1, 1)
			}
		}()
	}
	wg.Wait()
	if got := mt.Bytes(InterApp, Network); got != 8000 {
		t.Fatalf("concurrent total = %d, want 8000", got)
	}
}

func TestMediumClassStrings(t *testing.T) {
	if SharedMemory.String() != "shm" || Network.String() != "network" {
		t.Fatal("Medium strings wrong")
	}
	if InterApp.String() != "inter-app" || IntraApp.String() != "intra-app" {
		t.Fatal("Class strings wrong")
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	mt := NewMetrics()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mt.Record("p", InterApp, Network, 1, 0, 1, -1)
}

func TestTaskIDString(t *testing.T) {
	if (TaskID{App: 3, Rank: 17}).String() != "3:17" {
		t.Fatalf("TaskID.String = %q", TaskID{App: 3, Rank: 17})
	}
}

func TestCoreOnValidation(t *testing.T) {
	m := machine(t, 2, 3)
	for _, fn := range []func(){
		func() { m.CoreOn(5, 0) },
		func() { m.CoreOn(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
