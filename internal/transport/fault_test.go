package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
)

func intp(v int) *int { return &v }

func testFabric(t *testing.T, nodes, cores int) *Fabric {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	return NewFabric(m)
}

func mustPlan(t *testing.T, rules ...FaultRule) *FaultPlan {
	t.Helper()
	p, err := buildPlan(42, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildPlan compiles rules without round-tripping through JSON.
func buildPlan(seed uint64, rules ...FaultRule) (*FaultPlan, error) {
	p := &FaultPlan{seed: seed}
	for i, r := range rules {
		cr, err := compileRule(r)
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		p.rules = append(p.rules, cr)
	}
	return p, nil
}

func TestFaultWindowFailsReadsThenHeals(t *testing.T) {
	f := testFabric(t, 2, 2)
	key := BufKey{Name: "u"}
	if err := f.Endpoint(0).Expose(key, "payload"); err != nil {
		t.Fatal(err)
	}
	// Fail the first 3 reads against core 0, then heal.
	f.SetFaultPlan(mustPlan(t, FaultRule{Op: "read", Dst: intp(0), Mode: "error", FromOp: 0, ToOp: 3}))
	m := Meter{Phase: "t", Class: cluster.InterApp}
	for i := 0; i < 3; i++ {
		err := readOne(f.Endpoint(1), 0, key, m, 8, nil)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := readOne(f.Endpoint(1), 0, key, m, 8, nil); err != nil {
		t.Fatalf("read after window: %v", err)
	}
	if got := f.FaultsInjected(); got != 3 {
		t.Fatalf("FaultsInjected = %d, want 3", got)
	}
	// Failed reads must not be metered.
	if ops := f.MediumOps(cluster.SharedMemory) + f.MediumOps(cluster.Network); ops != 1 {
		t.Fatalf("metered ops = %d, want 1", ops)
	}
}

func TestFaultProbabilisticDeterministicCount(t *testing.T) {
	// The number of fires out of N matches is a pure function of
	// (seed, rule, N): two fresh plans with the same seed inject the same
	// count, a different seed very likely a different pattern.
	const n = 400
	count := func(seed uint64) int64 {
		f := testFabric(t, 1, 2)
		key := BufKey{Name: "u"}
		if err := f.Endpoint(0).Expose(key, 1); err != nil {
			t.Fatal(err)
		}
		p, err := buildPlan(seed, FaultRule{Op: "read", Mode: "error", Prob: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		f.SetFaultPlan(p)
		m := Meter{Phase: "t"}
		for i := 0; i < n; i++ {
			_ = readOne(f.Endpoint(1), 0, key, m, 1, nil)
		}
		return p.Injected()
	}
	a, b := count(7), count(7)
	if a != b {
		t.Fatalf("same seed injected %d then %d faults", a, b)
	}
	if a == 0 || a == n {
		t.Fatalf("prob 0.2 injected %d of %d", a, n)
	}
	// ~20% of 400, loose bounds.
	if a < n/10 || a > n/2 {
		t.Fatalf("prob 0.2 injected %d of %d, far off expectation", a, n)
	}
}

func TestFaultMaxBoundsFires(t *testing.T) {
	f := testFabric(t, 1, 2)
	key := BufKey{Name: "u"}
	if err := f.Endpoint(0).Expose(key, 1); err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, FaultRule{Op: "read", Mode: "error", Prob: 1, Max: 2})
	f.SetFaultPlan(p)
	m := Meter{Phase: "t"}
	fails := 0
	for i := 0; i < 10; i++ {
		if err := readOne(f.Endpoint(1), 0, key, m, 1, nil); err != nil {
			fails++
		}
	}
	if fails != 2 || p.Injected() != 2 {
		t.Fatalf("fails=%d injected=%d, want 2/2", fails, p.Injected())
	}
}

func TestFaultDelayDoesNotFail(t *testing.T) {
	f := testFabric(t, 1, 2)
	f.SetFaultPlan(mustPlan(t, FaultRule{Op: "send", Medium: "shm", Mode: "delay", Prob: 1, DelayUS: 100}))
	m := Meter{Phase: "t"}
	start := time.Now()
	if err := f.Endpoint(0).Send(1, 1, []byte{1}, m); err != nil {
		t.Fatalf("delayed send failed: %v", err)
	}
	if el := time.Since(start); el < 100*time.Microsecond {
		t.Fatalf("send returned after %v, want >= 100µs delay", el)
	}
	p := f.fault.Load()
	if p.Delayed() != 1 || p.Injected() != 0 {
		t.Fatalf("delayed=%d injected=%d, want 1/0", p.Delayed(), p.Injected())
	}
	if _, err := f.Endpoint(1).Recv(0, 1); err != nil {
		t.Fatalf("message lost: %v", err)
	}
}

func TestFaultMatchScoping(t *testing.T) {
	f := testFabric(t, 2, 2) // cores 0,1 on node 0; 2,3 on node 1
	key := BufKey{Name: "u"}
	if err := f.Endpoint(0).Expose(key, 1); err != nil {
		t.Fatal(err)
	}
	// Only network reads initiated by core 2 fail.
	f.SetFaultPlan(mustPlan(t, FaultRule{Op: "read", Medium: "network", Src: intp(2), Mode: "error", Prob: 1}))
	m := Meter{Phase: "t"}
	if err := readOne(f.Endpoint(1), 0, key, m, 1, nil); err != nil {
		t.Fatalf("shm read from core 1 failed: %v", err)
	}
	if err := readOne(f.Endpoint(3), 0, key, m, 1, nil); err != nil {
		t.Fatalf("network read from core 3 failed: %v", err)
	}
	if err := readOne(f.Endpoint(2), 0, key, m, 1, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("network read from core 2: err = %v, want ErrInjected", err)
	}
	// Calls are unaffected by a read rule.
	f.Endpoint(0).RegisterHandler("svc", func(src cluster.CoreID, req any) (any, error) { return 1, nil })
	if _, err := f.Endpoint(2).Call(0, "svc", nil, m, 1, 1); err != nil {
		t.Fatalf("call matched a read rule: %v", err)
	}
}

func TestFaultPlanRemoval(t *testing.T) {
	f := testFabric(t, 1, 2)
	key := BufKey{Name: "u"}
	if err := f.Endpoint(0).Expose(key, 1); err != nil {
		t.Fatal(err)
	}
	f.SetFaultPlan(mustPlan(t, FaultRule{Op: "read", Mode: "error", Prob: 1}))
	m := Meter{Phase: "t"}
	if err := readOne(f.Endpoint(1), 0, key, m, 1, nil); err == nil {
		t.Fatal("fault plan not applied")
	}
	f.SetFaultPlan(nil)
	if err := readOne(f.Endpoint(1), 0, key, m, 1, nil); err != nil {
		t.Fatalf("read after plan removal: %v", err)
	}
}

func TestParseFaultPlan(t *testing.T) {
	good := `{"seed": 7, "rules": [
		{"op": "read", "medium": "shm", "dst": 3, "mode": "error", "prob": 0.05},
		{"op": "send", "mode": "delay", "prob": 1, "delay_us": 50},
		{"op": "call", "mode": "drop", "from_op": 10, "to_op": 20, "max": 5}
	]}`
	p, err := ParseFaultPlan([]byte(good))
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if len(p.rules) != 3 || p.seed != 7 {
		t.Fatalf("parsed %d rules seed %d, want 3 rules seed 7", len(p.rules), p.seed)
	}
	bad := []struct {
		name, in string
	}{
		{"empty", ``},
		{"not json", `{"rules": [`},
		{"no rules", `{"seed": 1}`},
		{"unknown field", `{"rules": [{"op": "read", "mode": "error", "prob": 1, "bogus": 1}]}`},
		{"unknown op", `{"rules": [{"op": "teleport", "mode": "error", "prob": 1}]}`},
		{"unknown medium", `{"rules": [{"op": "read", "medium": "carrier-pigeon", "mode": "error", "prob": 1}]}`},
		{"unknown mode", `{"rules": [{"op": "read", "mode": "explode", "prob": 1}]}`},
		{"prob out of range", `{"rules": [{"op": "read", "mode": "error", "prob": 1.5}]}`},
		{"negative prob", `{"rules": [{"op": "read", "mode": "error", "prob": -0.1}]}`},
		{"never fires", `{"rules": [{"op": "read", "mode": "error"}]}`},
		{"prob and window", `{"rules": [{"op": "read", "mode": "error", "prob": 0.5, "to_op": 3}]}`},
		{"delay without duration", `{"rules": [{"op": "send", "mode": "delay", "prob": 1}]}`},
		{"negative delay", `{"rules": [{"op": "send", "mode": "delay", "prob": 1, "delay_us": -3}]}`},
		{"negative src", `{"rules": [{"op": "read", "src": -2, "mode": "error", "prob": 1}]}`},
		{"negative max", `{"rules": [{"op": "read", "mode": "error", "prob": 1, "max": -1}]}`},
		{"inverted window", `{"rules": [{"op": "read", "mode": "error", "from_op": 9, "to_op": 3}]}`},
		{"trailing garbage", `{"rules": [{"op": "read", "mode": "error", "prob": 1}]} {"x": 1}`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseFaultPlan([]byte(tc.in)); err == nil {
				t.Fatalf("malformed plan accepted: %s", tc.in)
			}
		})
	}
}

func TestEndpointClosedTypedErrors(t *testing.T) {
	f := testFabric(t, 1, 2)
	key := BufKey{Name: "u"}
	if err := f.Endpoint(1).Expose(key, 1); err != nil {
		t.Fatal(err)
	}
	f.Endpoint(1).RegisterHandler("svc", func(src cluster.CoreID, req any) (any, error) { return 1, nil })
	f.Endpoint(1).Close()
	m := Meter{Phase: "t"}

	if err := f.Endpoint(0).Send(1, 1, nil, m); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("Send to closed endpoint: %v, want ErrEndpointClosed", err)
	}
	if _, err := f.Endpoint(1).Recv(0, 1); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("Recv on closed endpoint: %v, want ErrEndpointClosed", err)
	}
	// Read and Call against a closed endpoint are the regression this test
	// pins: both must surface the typed sentinel, even though the buffer
	// was exposed and the handler registered before the close.
	if err := readOne(f.Endpoint(0), 1, key, m, 1, nil); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("Read from closed endpoint: %v, want ErrEndpointClosed", err)
	}
	if _, err := f.Endpoint(0).Call(1, "svc", nil, m, 1, 1); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("Call to closed endpoint: %v, want ErrEndpointClosed", err)
	}
}

func TestFaultInjectionConcurrentSafe(t *testing.T) {
	// Exercised under -race in CI: concurrent readers against one plan.
	f := testFabric(t, 2, 4)
	key := BufKey{Name: "u"}
	if err := f.Endpoint(0).Expose(key, 1); err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t,
		FaultRule{Op: "read", Mode: "error", Prob: 0.3},
		FaultRule{Op: "read", Mode: "delay", Prob: 0.1, DelayUS: 1})
	f.SetFaultPlan(p)
	m := Meter{Phase: "t"}
	done := make(chan int64, 4)
	for c := 1; c < 5; c++ {
		go func(c int) {
			var fails int64
			for i := 0; i < 200; i++ {
				if err := readOne(f.Endpoint(cluster.CoreID(c)), 0, key, m, 1, nil); err != nil {
					fails++
				}
			}
			done <- fails
		}(c)
	}
	var total int64
	for i := 0; i < 4; i++ {
		total += <-done
	}
	if total != p.Injected() {
		t.Fatalf("observed %d failures, plan counted %d", total, p.Injected())
	}
}
