package tcpnet

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
)

// TestStreamOpsMirrorMonotone drives the three wire v5 streaming ops
// against a serving process and checks the node-local stream table they
// maintain: watermark, cursor positions and retained floor all advance
// monotonically, and a late or duplicate announcement never rewinds the
// recorded state — an elastic replacement must be able to resume a stream
// from this mirror without ever seeing it move backwards.
func TestStreamOpsMirrorMonotone(t *testing.T) {
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := serveNode(t, m, 1)
	client := connectDriver(t, m, s.Addr(1))
	client.SetPeerIncarnation(1, 1)

	// Publish notifications advance the recorded watermark and echo it.
	if got, err := client.StreamPublish(1, "u", 2); err != nil || got != 2 {
		t.Fatalf("publish v2: latest=%d err=%v, want 2, nil", got, err)
	}
	// A late duplicate (a retried notify that lost a race) never rewinds.
	if got, err := client.StreamPublish(1, "u", 0); err != nil || got != 2 {
		t.Fatalf("late publish v0: latest=%d err=%v, want 2, nil", got, err)
	}

	// Cursor advances record per-consumer positions and return the
	// watermark so a resuming driver learns both in one round trip.
	if got, err := client.StreamAdvance(1, "u", 0, 1); err != nil || got != 2 {
		t.Fatalf("advance consumer 0: latest=%d err=%v, want 2, nil", got, err)
	}
	if got, err := client.StreamAdvance(1, "u", 1, 2); err != nil || got != 2 {
		t.Fatalf("advance consumer 1: latest=%d err=%v, want 2, nil", got, err)
	}
	// A stale position report never rewinds a cursor.
	if _, err := client.StreamAdvance(1, "u", 1, 0); err != nil {
		t.Fatalf("stale advance: %v", err)
	}

	// Retirement raises the floor, monotonically.
	if err := client.StreamRetire(1, "u", 1); err != nil {
		t.Fatalf("retire below 1: %v", err)
	}
	if err := client.StreamRetire(1, "u", 0); err != nil {
		t.Fatalf("late retire below 0: %v", err)
	}

	latest, floor, cursors := s.StreamTable("u")
	if latest != 2 || floor != 1 {
		t.Fatalf("stream table latest/floor = %d/%d, want 2/1", latest, floor)
	}
	if cursors[0] != 1 || cursors[1] != 2 || len(cursors) != 2 {
		t.Fatalf("stream table cursors = %v, want {0:1, 1:2}", cursors)
	}

	// A second stream gets its own table, starting empty.
	if latest, floor, cursors := s.StreamTable("w"); latest != -1 || floor != 0 || len(cursors) != 0 {
		t.Fatalf("fresh stream table = %d/%d/%v, want -1/0/empty", latest, floor, cursors)
	}
}

// TestStreamOpsFenceIncarnation: every streaming op addressed to a dead
// process's identity must be rejected by its replacement, exactly like a
// lease renewal — otherwise a driver that has not yet observed a node
// restart could plant stream state into a process that never owned the
// stream's blocks.
func TestStreamOpsFenceIncarnation(t *testing.T) {
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := serveNode(t, m, 3)
	client := connectDriver(t, m, s.Addr(1))

	// Ops carrying the serving incarnation land.
	client.SetPeerIncarnation(1, 3)
	if _, err := client.StreamPublish(1, "u", 1); err != nil {
		t.Fatalf("matching publish: %v", err)
	}
	if _, err := client.StreamAdvance(1, "u", 0, 1); err != nil {
		t.Fatalf("matching advance: %v", err)
	}
	if err := client.StreamRetire(1, "u", 1); err != nil {
		t.Fatalf("matching retire: %v", err)
	}

	// Ops addressed to a previous incarnation must fail even though a live
	// process answers the socket — and must not touch the stream table.
	client.SetPeerIncarnation(1, 2)
	if _, err := client.StreamPublish(1, "u", 9); err == nil ||
		!strings.Contains(err.Error(), "incarnation") {
		t.Fatalf("stale publish: got %v, want an incarnation rejection", err)
	}
	if _, err := client.StreamAdvance(1, "u", 0, 9); err == nil ||
		!strings.Contains(err.Error(), "incarnation") {
		t.Fatalf("stale advance: got %v, want an incarnation rejection", err)
	}
	if err := client.StreamRetire(1, "u", 9); err == nil ||
		!strings.Contains(err.Error(), "incarnation") {
		t.Fatalf("stale retire: got %v, want an incarnation rejection", err)
	}
	if latest, floor, cursors := s.StreamTable("u"); latest != 1 || floor != 1 || cursors[0] != 1 {
		t.Fatalf("fenced ops changed the stream table: %d/%d/%v", latest, floor, cursors)
	}
}

// TestHandshakeRejectsV4Peer pins the wire v5 bump for the streaming ops:
// a peer still speaking v4 (membership, no streaming) is turned away at
// the handshake with a clean version error naming both versions — there
// is no mixed-version mode in which a v4 peer could silently ignore
// publish notifications and serve retired versions forever.
func TestHandshakeRejectsV4Peer(t *testing.T) {
	_, b := newLoopbackFabric(t, 1, 1)
	c, err := net.Dial("tcp", b.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := &frame{Op: opHello, Dst: 0, Tag: helloMagic, Version: 4, Bytes: 1, Bytes2: 1}
	if err := writeFrame(c, hello); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != statusErr || !strings.Contains(resp.Err, fmt.Sprintf("wire version 4, want %d", wireVersion)) {
		t.Fatalf("v4 hello answered with status %d, err %q; want a wire version rejection", resp.Status, resp.Err)
	}
}
