package dht

import (
	"errors"
	"testing"
	"time"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
)

func callFaultPlan(t *testing.T, src string) *transport.FaultPlan {
	t.Helper()
	p, err := transport.ParseFaultPlan([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A control RPC that fails transiently is retried under the service policy
// and the round trip still succeeds.
func TestCallRetryRecoversInjectedFault(t *testing.T) {
	s, f := service(t, 4, 2, 2, 4)
	f.SetFaultPlan(callFaultPlan(t,
		`{"rules": [{"op": "call", "mode": "error", "from_op": 0, "to_op": 1}]}`))
	s.SetRetryPolicy(retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
	})
	cl := s.ClientAt(0)
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4})
	if err := cl.Insert("p", 1, Entry{Var: "v", Region: region, Owner: 3}); err != nil {
		t.Fatalf("Insert under faults: %v", err)
	}
	got, err := cl.Query("p", 1, "v", 0, region)
	if err != nil {
		t.Fatalf("Query under faults: %v", err)
	}
	if len(got) != 1 || got[0].Owner != 3 {
		t.Fatalf("Query = %+v", got)
	}
	if f.FaultsInjected() != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", f.FaultsInjected())
	}
}

// Without a policy the injected fault surfaces to the caller unchanged.
func TestCallNoPolicyFailsFast(t *testing.T) {
	s, f := service(t, 4, 2, 2, 4)
	f.SetFaultPlan(callFaultPlan(t,
		`{"rules": [{"op": "call", "mode": "error", "from_op": 0, "to_op": 1}]}`))
	cl := s.ClientAt(0)
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4})
	err := cl.Insert("p", 1, Entry{Var: "v", Region: region, Owner: 3})
	if !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("Insert error = %v, want ErrInjected", err)
	}
}

// A closed DHT core is terminal: the policy must not burn its attempt
// budget against an endpoint that will never answer.
func TestCallClosedEndpointNotRetried(t *testing.T) {
	s, f := service(t, 2, 2, 2, 4)
	s.SetRetryPolicy(retry.Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
	})
	for n := 0; n < 2; n++ {
		f.Endpoint(s.DHTCore(n)).Close()
	}
	cl := s.ClientAt(1)
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4})
	start := time.Now()
	err := cl.Insert("p", 1, Entry{Var: "v", Region: region, Owner: 1})
	if !errors.Is(err, transport.ErrEndpointClosed) {
		t.Fatalf("Insert error = %v, want ErrEndpointClosed", err)
	}
	// Five attempts with backoff would sleep; a terminal error returns at
	// once. Generous bound keeps this robust on loaded CI machines.
	if d := time.Since(start); d > time.Second {
		t.Fatalf("terminal error took %v, looks retried", d)
	}
}
