package membership

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
)

// fakeClock is an injectable time source driven by the test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(time.Second)
	r.SetClock(clk.now)

	if err := r.Join(0, "a:1", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(1, "b:1", 1); err != nil {
		t.Fatal(err)
	}
	if got := r.Alive(); len(got) != 2 {
		t.Fatalf("alive %v, want both members", got)
	}
	// Renewal within the TTL keeps the lease; time passes, node 1 stops
	// renewing and expires while node 0's renewed lease survives.
	clk.advance(700 * time.Millisecond)
	if err := r.Renew(0, 1); err != nil {
		t.Fatal(err)
	}
	clk.advance(700 * time.Millisecond)
	expired := r.Sweep()
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("sweep returned %v, want [1]", expired)
	}
	if got := r.Alive(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("alive %v, want [0]", got)
	}
	// A second sweep reports nothing new.
	if again := r.Sweep(); len(again) != 0 {
		t.Fatalf("second sweep returned %v", again)
	}
	// An expired member cannot renew; a replacement must re-join with a
	// higher incarnation, and a replayed identity is rejected.
	if err := r.Renew(1, 1); err == nil {
		t.Fatal("renew of an expired lease succeeded")
	}
	if err := r.Join(1, "b:2", 1); err == nil {
		t.Fatal("join replaying the dead incarnation succeeded")
	}
	if err := r.Join(1, "b:2", 2); err != nil {
		t.Fatal(err)
	}
	if got := r.Alive(); len(got) != 2 {
		t.Fatalf("alive %v after rejoin, want both", got)
	}
	if inc := r.Incarnation(1); inc != 2 {
		t.Fatalf("incarnation %d after rejoin, want 2", inc)
	}
}

func TestRenewRequiresMatchingIncarnation(t *testing.T) {
	r := NewRegistry(time.Second)
	if err := r.Join(3, "c:1", 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Renew(3, 4); err == nil {
		t.Fatal("renew with a superseded incarnation succeeded")
	}
	if err := r.Renew(3, 5); err != nil {
		t.Fatal(err)
	}
}

func TestEventHookSeesTransitions(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(time.Second)
	r.SetClock(clk.now)
	var events []string
	r.SetEventHook(func(ev string, node cluster.NodeID) {
		events = append(events, ev)
	})
	_ = r.Join(0, "a", 1)
	_ = r.Renew(0, 1)
	clk.advance(2 * time.Second)
	r.Sweep()
	want := []string{"join", "renew", "expire"}
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events %v, want %v", events, want)
		}
	}
}

func block(v string, version int, owner cluster.CoreID, lo, hi int) Block {
	return Block{Var: v, Version: version, Owner: owner,
		Region: geometry.NewBBox(geometry.Point{lo, 0}, geometry.Point{hi, 4}),
		Data:   make([]float64, (hi-lo)*4)}
}

func TestLedgerRecordsAndDiscards(t *testing.T) {
	l := NewLedger()
	b := block("rho", 0, 2, 0, 4)
	l.RecordPut(b.Var, b.Version, b.Region, b.Owner, b.Data)
	l.RecordPut("rho", 0, b.Region, 3, b.Data) // same region, different owner
	if l.Len() != 2 {
		t.Fatalf("ledger has %d blocks, want 2", l.Len())
	}
	// The ledger must copy: mutating the caller's slice later must not
	// corrupt the recorded payload.
	b.Data[0] = 99
	if got := l.Blocks()[0].Data[0]; got != 0 {
		t.Fatalf("ledger shares the caller's slice (saw %v)", got)
	}
	l.RecordDiscard("rho", 0, b.Region, 3)
	if l.Len() != 1 {
		t.Fatalf("ledger has %d blocks after discard, want 1", l.Len())
	}
}

func TestReconcileRestagesAffectedAndReinsertsRest(t *testing.T) {
	m, err := cluster.NewMachine(3, 2) // cores 0,1 on node 0; 2,3 on node 1; 4,5 on node 2
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	reg := NewRegistry(time.Second)
	reg.SetClock(clk.now)
	for n := 0; n < 3; n++ {
		_ = reg.Join(cluster.NodeID(n), "x", 1)
	}
	l := NewLedger()
	onDead := block("rho", 0, 2, 0, 4)  // owner core 2 → node 1
	onDead2 := block("rho", 0, 3, 4, 8) // owner core 3 → node 1
	onLive := block("rho", 0, 4, 8, 12) // owner core 4 → node 2
	for _, b := range []Block{onDead, onDead2, onLive} {
		l.RecordPut(b.Var, b.Version, b.Region, b.Owner, b.Data)
	}

	var restaged, reinserted []Block
	var resplitWith []int
	invalidated := false
	rc := NewReconciler(reg, l, m, Actions{
		Restage:  func(b Block) error { restaged = append(restaged, b); return nil },
		Reinsert: func(b Block) error { reinserted = append(reinserted, b); return nil },
		Resplit: func(alive []int) (int, error) {
			resplitWith = append([]int(nil), alive...)
			return 7, nil
		},
		Invalidate: func() { invalidated = true },
	})

	// Node 1 crashes: it stops renewing while the others heartbeat, so
	// only its lease runs out. A replacement then joins its slot.
	clk.advance(700 * time.Millisecond)
	_ = reg.Renew(0, 1)
	_ = reg.Renew(2, 1)
	clk.advance(700 * time.Millisecond)
	expired := reg.Sweep()
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired %v, want [1]", expired)
	}
	if err := reg.Join(1, "x2", 2); err != nil {
		t.Fatal(err)
	}
	res, err := rc.Reconcile(expired)
	if err != nil {
		t.Fatal(err)
	}
	if len(restaged) != 2 || len(reinserted) != 1 {
		t.Fatalf("restaged %d, reinserted %d; want 2, 1", len(restaged), len(reinserted))
	}
	wantBytes := onDead.Bytes() + onDead2.Bytes()
	if res.RestagedCount != 2 || res.MigratedBytes != wantBytes {
		t.Fatalf("result %+v, want 2 blocks / %d bytes", res, wantBytes)
	}
	if res.MovedRecords != 7 {
		t.Fatalf("moved records %d, want the resplit's count", res.MovedRecords)
	}
	if len(resplitWith) != 3 {
		t.Fatalf("resplit saw alive=%v, want all three (replacement joined)", resplitWith)
	}
	if !invalidated {
		t.Fatal("reconcile did not invalidate cached schedules")
	}
}

func TestReconcileStopsOnRestageFailure(t *testing.T) {
	m, _ := cluster.NewMachine(2, 1)
	reg := NewRegistry(time.Second)
	_ = reg.Join(0, "a", 1)
	l := NewLedger()
	b := block("rho", 0, 1, 0, 4) // owner core 1 → node 1
	l.RecordPut(b.Var, b.Version, b.Region, b.Owner, b.Data)
	boom := errors.New("boom")
	rc := NewReconciler(reg, l, m, Actions{
		Restage: func(Block) error { return boom },
	})
	if _, err := rc.Reconcile([]cluster.NodeID{1}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the restage failure", err)
	}
}

func TestMonitorRenewsUntilProbeFails(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry(50 * time.Millisecond)
	reg.SetClock(clk.now)
	_ = reg.Join(0, "a", 1)

	var mu sync.Mutex
	healthy := true
	probes := 0
	mo := NewMonitor(reg, time.Millisecond, func(node cluster.NodeID, inc uint64) error {
		mu.Lock()
		defer mu.Unlock()
		probes++
		if !healthy {
			return errors.New("unreachable")
		}
		return nil
	})
	mo.Start()
	defer mo.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := probes
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor never probed")
		}
		time.Sleep(time.Millisecond)
	}
	// Healthy probes renewed the lease, so advancing less than a TTL past
	// the last renewal keeps the member alive.
	if got := reg.Sweep(); len(got) != 0 {
		t.Fatalf("swept %v while renewals flow", got)
	}
	// The node dies: probes fail, renewals stop, the lease expires. The
	// loop is stopped first so no in-flight healthy probe races the clock.
	mo.Stop()
	mu.Lock()
	healthy = false
	mu.Unlock()
	mo.renewAll() // a failing probe must not renew
	clk.advance(time.Hour)
	expired := reg.Sweep()
	if len(expired) != 1 || expired[0] != 0 {
		t.Fatalf("swept %v after probes fail, want [0]", expired)
	}
}
