package cods

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
)

// fastPolicy retries quickly so fault tests stay fast.
func fastPolicy(attempts int) retry.Policy {
	return retry.Policy{
		MaxAttempts: attempts,
		BaseDelay:   time.Microsecond,
		MaxDelay:    20 * time.Microsecond,
	}
}

// mustPlan parses a fault plan or fails the test.
func mustPlan(t *testing.T, src string) *transport.FaultPlan {
	t.Helper()
	p, err := transport.ParseFaultPlan([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A transient injected read fault is retried away: the get succeeds and
// the result is identical to the fault-free content.
func TestPullRetryRecoversInjectedFault(t *testing.T) {
	_, sp := testRig(t, 2, 4, []int{8, 8})
	dc, err := decomp.New(decomp.Blocked, geometry.BoxFromSize([]int{8, 8}), []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, sp, dc, func(r int) cluster.CoreID { return cluster.CoreID(r) }, "u", 0, true)
	sp.SetRetryPolicy(fastPolicy(4))
	// The first two read matches fail, the third goes through.
	plan := mustPlan(t, `{"seed": 7, "rules": [
		{"op": "read", "mode": "error", "from_op": 0, "to_op": 2}]}`)
	sp.Fabric().SetFaultPlan(plan)
	defer sp.Fabric().SetFaultPlan(nil)

	h := sp.HandleAt(5, 2, "get")
	region := geometry.NewBBox(geometry.Point{1, 1}, geometry.Point{3, 3})
	got, err := h.GetSequential("u", 0, region)
	if err != nil {
		t.Fatal(err)
	}
	checkRegion(t, region, got)
	if plan.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2", plan.Injected())
	}
}

// TestGetRetryBudget pins the one budget a get has: under fastPolicy(4) a
// one-transfer get makes at most four reads, all against the one schedule
// its single lookup built. A fault window of three matches heals on the
// fourth read; one of four exhausts the budget.
func TestGetRetryBudget(t *testing.T) {
	for _, tc := range []struct {
		window int // read matches that fail
		heals  bool
	}{
		{window: 3, heals: true},
		{window: 4, heals: false},
	} {
		t.Run(fmt.Sprintf("window %d", tc.window), func(t *testing.T) {
			_, sp := testRig(t, 2, 4, []int{8, 8})
			dc, err := decomp.New(decomp.Blocked, geometry.BoxFromSize([]int{8, 8}), []int{2, 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			putAll(t, sp, dc, func(r int) cluster.CoreID { return cluster.CoreID(r) }, "u", 0, true)
			sp.SetRetryPolicy(fastPolicy(4))
			// One transfer, owner core 0: the first window reads of it fail.
			plan := mustPlan(t, fmt.Sprintf(`{"seed": 1, "rules": [
				{"op": "read", "dst": 0, "mode": "error", "from_op": 0, "to_op": %d}]}`, tc.window))
			sp.Fabric().SetFaultPlan(plan)
			defer sp.Fabric().SetFaultPlan(nil)

			h := sp.HandleAt(6, 2, "get")
			region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{3, 3})
			got, err := h.GetSequential("u", 0, region)
			if tc.heals {
				if err != nil {
					t.Fatalf("a %d-match window outlasted four attempts: %v", tc.window, err)
				}
				checkRegion(t, region, got)
			} else {
				var pe *PullError
				if !errors.As(err, &pe) || pe.Attempts != 4 {
					t.Fatalf("err = %v, want a *PullError after 4 attempts", err)
				}
			}
			if plan.Injected() != int64(tc.window) {
				t.Fatalf("Injected = %d, want %d: one read per attempt", plan.Injected(), tc.window)
			}
			if h.CacheMisses != 1 || h.CacheHits != 0 {
				t.Fatalf("%d schedule misses and %d hits, want one lookup and no hit", h.CacheMisses, h.CacheHits)
			}
		})
	}
}

// A pull that fails every attempt surfaces as a *PullError that unwraps to
// transport.ErrInjected and names the sub-box and owner.
func TestPullErrorContract(t *testing.T) {
	_, sp := testRig(t, 2, 4, []int{8, 8})
	dc, err := decomp.New(decomp.Blocked, geometry.BoxFromSize([]int{8, 8}), []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, sp, dc, func(r int) cluster.CoreID { return cluster.CoreID(r) }, "u", 3, true)
	sp.SetRetryPolicy(fastPolicy(3))
	plan := mustPlan(t, `{"seed": 2, "rules": [
		{"op": "read", "mode": "error", "prob": 1}]}`)
	sp.Fabric().SetFaultPlan(plan)
	defer sp.Fabric().SetFaultPlan(nil)

	h := sp.HandleAt(4, 2, "get")
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{2, 2})
	_, err = h.GetSequential("u", 3, region)
	var pe *PullError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PullError", err)
	}
	if !errors.Is(err, transport.ErrInjected) {
		t.Fatal("PullError does not unwrap to ErrInjected")
	}
	if pe.Var != "u" || pe.Version != 3 || pe.Attempts != 3 || pe.Owner != 0 {
		t.Fatalf("PullError = %+v", pe)
	}
	msg := pe.Error()
	for _, want := range []string{`"u"`, "v3", "core 0", "3 attempt(s)"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}

// A closed owner endpoint is terminal: no retry budget is burned on it and
// the error still reaches through the PullError wrapper.
func TestPullClosedEndpointNotRetried(t *testing.T) {
	_, sp := testRig(t, 2, 4, []int{8, 8})
	dc, err := decomp.New(decomp.Blocked, geometry.BoxFromSize([]int{8, 8}), []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, sp, dc, func(r int) cluster.CoreID { return cluster.CoreID(r) }, "u", 0, true)
	sp.SetRetryPolicy(fastPolicy(5))
	sp.Fabric().Endpoint(0).Close()

	h := sp.HandleAt(5, 2, "get")
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{2, 2})
	_, err = h.GetSequential("u", 0, region)
	if !errors.Is(err, transport.ErrEndpointClosed) {
		t.Fatalf("err = %v, want ErrEndpointClosed", err)
	}
	var pe *PullError
	if errors.As(err, &pe) && pe.Attempts != 1 {
		t.Fatalf("closed endpoint burned %d attempts, want 1", pe.Attempts)
	}
}

// With no retry policy installed (the default), a pull failure is still a
// typed PullError but only one attempt is made.
func TestPullNoPolicySingleAttempt(t *testing.T) {
	_, sp := testRig(t, 2, 4, []int{8, 8})
	dc, err := decomp.New(decomp.Blocked, geometry.BoxFromSize([]int{8, 8}), []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, sp, dc, func(r int) cluster.CoreID { return cluster.CoreID(r) }, "u", 0, true)
	plan := mustPlan(t, `{"seed": 3, "rules": [
		{"op": "read", "mode": "error", "prob": 1}]}`)
	sp.Fabric().SetFaultPlan(plan)
	defer sp.Fabric().SetFaultPlan(nil)

	h := sp.HandleAt(5, 2, "get")
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{2, 2})
	_, err = h.GetSequential("u", 0, region)
	var pe *PullError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PullError", err)
	}
	if pe.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", pe.Attempts)
	}
	if plan.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1 (one read without a policy)", plan.Injected())
	}
}

// TestPutSpendsLookupBudgetOnce: with every control RPC failing under
// fastPolicy(4), a put makes one attempt — four insert RPCs, then four
// removal RPCs of its cleanup — since the lookup client's spent budget is
// terminal and the put loop does not spend its own on it again; a get
// under the same plan makes its four query RPCs and stops.
func TestPutSpendsLookupBudgetOnce(t *testing.T) {
	_, sp := testRig(t, 2, 4, []int{8, 8})
	sp.SetRetryPolicy(fastPolicy(4))
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{2, 2})
	if err := sp.HandleAt(1, 1, "put").PutSequential("w", 0, region, fillRegion(region)); err != nil {
		t.Fatal(err)
	}
	if n := sp.Lookup().TableSize(0) + sp.Lookup().TableSize(1); n != 1 {
		t.Fatalf("the region's record is kept by %d DHT cores, want 1", n)
	}
	for _, tc := range []struct {
		name string
		op   func() error
		want int64
	}{
		{"put", func() error { return sp.HandleAt(1, 1, "put").PutSequential("u", 0, region, fillRegion(region)) }, 8},
		{"get", func() error { _, err := sp.HandleAt(5, 2, "get").GetSequential("u", 0, region); return err }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := mustPlan(t, `{"seed": 5, "rules": [{"op": "call", "mode": "error", "prob": 1}]}`)
			sp.Fabric().SetFaultPlan(plan)
			defer sp.Fabric().SetFaultPlan(nil)
			if err := tc.op(); !errors.Is(err, transport.ErrInjected) {
				t.Fatalf("err = %v, want the injected fault", err)
			}
			if got := plan.Injected(); got != tc.want {
				t.Fatalf("%d injected faults, want %d", got, tc.want)
			}
		})
	}
}
