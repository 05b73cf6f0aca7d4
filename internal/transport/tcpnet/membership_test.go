package tcpnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
)

// serveNode starts a fresh serving process for node 1 of a 2x1 machine —
// a fresh fabric stands in for the restarted process's empty endpoint
// state — announcing the given incarnation.
func serveNode(t *testing.T, m *cluster.Machine, inc uint64) *Backend {
	t.Helper()
	fs := transport.NewFabric(m)
	cfg := testConfig()
	cfg.Incarnation = inc
	be, err := Serve(fs, 1, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

func connectDriver(t *testing.T, m *cluster.Machine, addr string) *Backend {
	t.Helper()
	fc := transport.NewFabric(m)
	p := retry.Default()
	p.MaxAttempts = 2
	p.Deadline = 5 * time.Second
	client, err := Connect(fc, map[cluster.NodeID]string{0: addr, 1: addr},
		Config{Retry: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestRedialAfterCrashRejectsStaleIncarnation is the regression test for
// the silent-reuse bug: a codsnode crashes, a replacement process comes up
// behind the node's route, and the driver's redial used to complete the
// handshake and keep going against a peer with empty endpoint state. The
// handshake now compares the server's announced incarnation against the
// last one observed and fails the dial with ErrStaleIncarnation until the
// membership layer installs the new identity.
func TestRedialAfterCrashRejectsStaleIncarnation(t *testing.T) {
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s1 := serveNode(t, m, 1)
	client := connectDriver(t, m, s1.Addr())

	inc, err := client.ProbeLease(1, 0)
	if err != nil || inc != 1 {
		t.Fatalf("first probe: inc=%d err=%v, want 1, nil", inc, err)
	}
	if got := client.PeerIncarnation(1); got != 1 {
		t.Fatalf("recorded incarnation %d, want 1", got)
	}

	// Crash and replace: the old process dies, a new one (empty state,
	// higher incarnation) starts serving the node's route.
	s1.Close()
	s2 := serveNode(t, m, 2)
	client.mu.Lock()
	client.addrs[1] = s2.Addr() // the route only: no incarnation, no pool flush
	client.mu.Unlock()

	// Concurrent operations race the dead pooled connection and the
	// redial. The one that drew the dead connection surfaces a plain
	// connection error (at-most-once: a request that hit the wire is not
	// replayed); everything else redials. None may silently succeed
	// against the replacement's empty state.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.ProbeLease(1, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("probe %d after crash silently succeeded against the replacement", i)
		}
	}
	// With the stale pool drained, every fresh dial must report the
	// incarnation mismatch specifically.
	if _, err := client.ProbeLease(1, 0); !errors.Is(err, ErrStaleIncarnation) {
		t.Fatalf("probe on fresh dial: got %v, want ErrStaleIncarnation", err)
	}

	// The membership layer acknowledges the new identity; traffic resumes.
	client.UpdatePeer(1, "", 2)
	inc, err = client.ProbeLease(1, 2)
	if err != nil || inc != 2 {
		t.Fatalf("probe after join: inc=%d err=%v, want 2, nil", inc, err)
	}
}

// TestLeaseProbeAssertsIncarnation: a renewal addressed to a dead
// process's identity must fail even though a live replacement answers the
// socket.
func TestLeaseProbeAssertsIncarnation(t *testing.T) {
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := serveNode(t, m, 3)
	client := connectDriver(t, m, s.Addr())
	if _, err := client.ProbeLease(1, 3); err != nil {
		t.Fatalf("matching renewal: %v", err)
	}
	if _, err := client.ProbeLease(1, 2); err == nil {
		t.Fatal("renewal against a stale incarnation succeeded")
	}
}
