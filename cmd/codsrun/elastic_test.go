package main

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// TestSettleWithUnfiredChaosHook: a crash hook that never fired — the
// staged table stayed empty, so no doomed block was ever seen — leaves
// nothing to recover. Settle gives it its last poll and returns at once instead of
// waiting out its timeout for a recovery that cannot come.
func TestSettleWithUnfiredChaosHook(t *testing.T) {
	fw, err := cods.New(cods.Config{Nodes: 1, CoresPerNode: 1, Domain: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	el := &elastic{
		fw:   fw,
		tc:   &tcpCluster{children: make(map[int]*child)},
		stop: make(chan struct{}),
	}
	defer close(el.stop)
	el.startChaos(0, 0)
	if err := el.Settle(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestExitWatcherReportsCrashesOnly runs stand-in children — a script that
// announces a listen address the way codsnode does, then sleeps. Killing
// one unasked, as the chaos hook does, delivers exactly one exit for its
// node, with the kill as the reason, and counts one in
// membership.exits; the children stop asks to exit deliver and count none.
func TestExitWatcherReportsCrashesOnly(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("the stand-in child is a shell script")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	bin := filepath.Join(t.TempDir(), "codsnode")
	script := "#!/bin/sh\necho 'CODSNODE LISTEN " + addr + "'\nexec sleep 60\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	obs.Enable(true)
	defer obs.Enable(false)
	exits := obs.C("membership.exits")
	before := exits.Value()
	tc := &tcpCluster{bin: bin, nodes: 2, exits: make(chan exit, 2), quit: make(chan struct{}),
		children: make(map[int]*child)}
	for node := 0; node < 2; node++ {
		if got, err := tc.spawnNode(node); err != nil || got != addr {
			t.Fatalf("spawning node %d: %q, %v", node, got, err)
		}
	}
	if !tc.live() {
		t.Fatal("the children are not live after their announcements")
	}

	tc.kill(1)
	select {
	case ex := <-tc.exits:
		if ex.node != 1 || ex.err == nil || ex.err.Error() != "signal: killed" {
			t.Fatalf("the kill reported node %d, %v; want 1, signal: killed", ex.node, ex.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no exit reported for the killed child")
	}
	if tc.live() {
		t.Fatal("live with node 1's child gone")
	}
	tc.reap(1)

	// stop sends every node the shutdown op; the stand-in exits when it is
	// dialed, as codsnode exits on that op.
	survivor := tc.children[0]
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			survivor.cmd.Process.Kill()
			c.Close()
		}
	}()
	fw, err := cods.New(cods.Config{Nodes: 2, CoresPerNode: 1, Domain: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if tc.be, err = tcpnet.Connect(fw.TransportFabric(), map[cluster.NodeID]string{0: addr, 1: addr}, tcpnet.Config{}); err != nil {
		t.Fatal(err)
	}
	tc.stop(fw)
	select {
	case ex := <-tc.exits:
		t.Fatalf("an exit was reported after the crash: node %d, %v", ex.node, ex.err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := exits.Value() - before; n != 1 {
		t.Fatalf("membership.exits counted %d exits, want the kill's 1", n)
	}
}
