package transport

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
)

// TestCallToClosedEndpoint: a Call to a closed endpoint fails with
// ErrEndpointClosed and never reaches the handler.
func TestCallToClosedEndpoint(t *testing.T) {
	f := fabric(t, 1, 2)
	server, client := f.Endpoint(0), f.Endpoint(1)
	calls := 0
	server.RegisterHandler("svc", func(src cluster.CoreID, req any) (any, error) {
		calls++
		return nil, nil
	})
	server.Close()
	if _, err := client.Call(0, "svc", nil, testMeter, 8, 8); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("Call to a closed endpoint: %v, want ErrEndpointClosed", err)
	}
	if calls != 0 {
		t.Fatalf("the handler of a closed endpoint ran %d times", calls)
	}
}

// TestCallHandlerPanic: a handler runs on the caller's goroutine, so its
// panic must come back to the caller as an error, not unwind the caller;
// the endpoint keeps serving, and the failed call meters no response.
func TestCallHandlerPanic(t *testing.T) {
	f := fabric(t, 1, 2)
	server, client := f.Endpoint(0), f.Endpoint(1)
	server.RegisterHandler("boom", func(src cluster.CoreID, req any) (any, error) {
		panic("table corrupted")
	})
	server.RegisterHandler("echo", func(src cluster.CoreID, req any) (any, error) { return req, nil })
	resp, err := client.Call(0, "boom", nil, testMeter, 8, 16)
	if err == nil || resp != nil || !strings.Contains(err.Error(), `handler "boom" on core 0 panicked: table corrupted`) {
		t.Fatalf("Call of a panicking handler = %v, %v; want the panic as an error", resp, err)
	}
	if got := f.MediumBytes(cluster.SharedMemory); got != 8 {
		t.Fatalf("a panicked call metered %d bytes, want its 8-byte request only", got)
	}
	if resp, err := client.Call(0, "echo", 7, testMeter, 8, 8); err != nil || resp != 7 {
		t.Fatalf("Call after a handler panic = %v, %v; want 7", resp, err)
	}
}

// TestCallAllocations: an in-process Call runs its handler inline — no
// goroutine, channel or closure — so a Call to a no-op handler allocates
// nothing.
func TestCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	f := fabric(t, 1, 2)
	f.Endpoint(0).RegisterHandler("noop", func(src cluster.CoreID, req any) (any, error) { return nil, nil })
	client := f.Endpoint(1)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.Call(0, "noop", nil, testMeter, 8, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an in-process Call to a no-op handler makes %v allocations, want 0", allocs)
	}
}

// TestCloseCallRace hammers concurrent Calls against a concurrent Close:
// every call must either succeed or fail with ErrEndpointClosed — no
// hangs, no other errors — and the race detector must stay quiet.
func TestCloseCallRace(t *testing.T) {
	f := fabric(t, 1, 4)
	server := f.Endpoint(0)
	server.RegisterHandler("echo", func(src cluster.CoreID, req any) (any, error) {
		return req, nil
	})

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers*16)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			ep := f.Endpoint(cluster.CoreID(1 + core%3))
			for j := 0; j < 16; j++ {
				if _, err := ep.Call(0, "echo", j, testMeter, 8, 8); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	server.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrEndpointClosed) {
			t.Fatalf("unexpected error under Close race: %v", err)
		}
	}
}
