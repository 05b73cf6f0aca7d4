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

// ping is one driver round trip to node on a machine of one core per node:
// an Exposed query for a buffer nobody staged, which a serving process
// answers without side effects.
func ping(b *Backend, node cluster.NodeID) error {
	_, err := b.Exposed(cluster.CoreID(node), transport.BufKey{Name: "ping"})
	return err
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

	if err := ping(client, 1); err != nil {
		t.Fatalf("first op: %v", err)
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
			errs[i] = ping(client, 1)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("op %d after crash silently succeeded against the replacement", i)
		}
	}
	// With the stale pool drained, every fresh dial must report the
	// incarnation mismatch specifically.
	if err := ping(client, 1); !errors.Is(err, ErrStaleIncarnation) {
		t.Fatalf("op on fresh dial: got %v, want ErrStaleIncarnation", err)
	}

	// The membership layer acknowledges the new identity; traffic resumes.
	client.UpdatePeer(1, "", 2)
	if err := ping(client, 1); err != nil {
		t.Fatalf("op after the update: %v", err)
	}
	if got := client.PeerIncarnation(1); got != 2 {
		t.Fatalf("recorded incarnation %d after the update, want 2", got)
	}
}

// TestHandshakeAssertsIncarnation: an operation addressed to a dead
// process's identity must fail even though a live replacement answers the
// socket — the handshake compares the incarnation the driver recorded with
// the one the server announces.
func TestHandshakeAssertsIncarnation(t *testing.T) {
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := serveNode(t, m, 3)
	client := connectDriver(t, m, s.Addr())
	client.UpdatePeer(1, "", 2)
	if err := ping(client, 1); !errors.Is(err, ErrStaleIncarnation) {
		t.Fatalf("op against a stale incarnation: got %v, want ErrStaleIncarnation", err)
	}
	client.UpdatePeer(1, "", 3)
	if err := ping(client, 1); err != nil {
		t.Fatalf("op against the matching incarnation: %v", err)
	}
}
