package main

// The driver side of the elastic membership layer (DESIGN §5h). The crash
// signal is the exit of a codsnode child this driver spawned: tcpCluster's
// watcher reports every exit nobody asked for, and the loop converges on
// each — reap the child, spawn a replacement on a fresh port, install its
// route on the driver's backend (the only process that dials), and
// re-stage the lost node's staged blocks from the payloads the driver's
// staged table keeps while in-flight pulls retry against the re-validated
// routing.

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/cluster"
	icods "github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/membership"
)

// elastic bundles the membership mechanisms of one -elastic run.
type elastic struct {
	fw *cods.Framework
	tc *tcpCluster

	stop chan struct{}
	done chan struct{}

	converging atomic.Bool
	// The crash hooks: Settle sets chaosOff and waits on chaosHooks, so no
	// kill fires once it judges. chaosKills counts the kills that fired;
	// Settle refuses to declare the topology settled until at least that
	// many nodes were reconciled, even when every pull happened to complete
	// before the kill landed.
	chaosOff   atomic.Bool
	chaosHooks sync.WaitGroup
	chaosKills atomic.Int64

	mu      sync.Mutex
	results []membership.Result
	failure error
}

// startElastic makes the staged table keep payloads and starts the loop
// that converges on each child exit.
func startElastic(fw *cods.Framework, tc *tcpCluster) *elastic {
	el := &elastic{
		fw: fw, tc: tc,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	fw.SharedSpace().SetKeepPayloads(true)
	go el.loop()
	return el
}

// loop converges on each child exit until stopped, keeping the first
// convergence failure for Settle.
func (el *elastic) loop() {
	defer close(el.done)
	for {
		select {
		case <-el.stop:
			return
		case ex := <-el.tc.exits:
			if err := el.converge(ex); err != nil {
				fmt.Printf("membership: convergence failed: %v\n", err)
				el.mu.Lock()
				el.failure = cmp.Or(el.failure, err)
				el.mu.Unlock()
			}
		}
	}
}

// converge replaces the exited node's process — reap, spawn, route the
// driver's backend to it — then reconciles, so the lost process's staged
// blocks are re-staged and every lookup record and cached schedule
// reflects the new process. The replacement takes the
// dead node's slot, so who owns which DHT interval is unchanged. The exit
// is printed, and traced when the run traces at all, so a crash and its
// recovery are visible inline with the pulls they disrupted.
func (el *elastic) converge(ex exit) error {
	el.converging.Store(true)
	defer el.converging.Store(false)
	status := "exit status 0"
	if ex.err != nil {
		status = ex.err.Error()
	}
	msg := fmt.Sprintf("membership: codsnode %d exited (%s)", ex.node, status)
	fmt.Println(msg)
	if tr := el.fw.SpanTracer(); tr != nil {
		tr.Event(0, msg)
	}
	el.tc.reap(ex.node)
	node := cluster.NodeID(ex.node)
	addr, err := el.tc.spawnNode(ex.node)
	if err != nil {
		return fmt.Errorf("membership: replacing node %d: %w", node, err)
	}
	el.tc.be.UpdatePeer(node, addr)
	res, err := membership.Reconcile(el.fw.SharedSpace(), []cluster.NodeID{node})
	if err != nil {
		return err
	}
	el.mu.Lock()
	el.results = append(el.results, res)
	el.mu.Unlock()
	fmt.Printf("membership: reconciled %d node(s): re-staged %d blocks (%d B), re-registered %d records\n",
		len(res.Affected), res.RestagedCount, res.MigratedBytes, res.Reinserted)
	return nil
}

// totals sums every reconcile pass — the external side of the report's
// membership reconciliation — and returns the first convergence failure.
func (el *elastic) totals() (membership.Result, error) {
	el.mu.Lock()
	defer el.mu.Unlock()
	var tot membership.Result
	for _, r := range el.results {
		tot.Affected = append(tot.Affected, r.Affected...)
		tot.RestagedCount += r.RestagedCount
		tot.MigratedBytes += r.MigratedBytes
		tot.Reinserted += r.Reinserted
	}
	return tot, el.failure
}

// Settle stops the crash hooks, then waits until no convergence is in
// flight, every node has a live child and every kill that fired was
// recovered, then surfaces any convergence failure — called between the
// workflow and stats collection so the driver only talks to settled
// children.
func (el *elastic) Settle(timeout time.Duration) error {
	el.chaosOff.Store(true)
	el.chaosHooks.Wait()
	deadline := time.Now().Add(timeout)
	for {
		tot, err := el.totals()
		if err != nil {
			return err
		}
		recovered := int64(len(tot.Affected))
		if !el.converging.Load() && el.tc.live() && recovered >= el.chaosKills.Load() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership: convergence did not settle within %s", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startChaos arms the crash hook: once the staged table shows staging done —
// at least `after` blocks, or no growth for 50 ms when after is 0 — and a
// block the doomed node owns is fully staged there (stagedOn), the node's
// codsnode child is hard-killed in that same poll, and recovery is left
// entirely to the exit watcher and the elastic loop. A staged record alone
// proves nothing: it is written before the expose, and every record may
// belong to a surviving node. The hook polls every millisecond: a small
// stream stages and retires all its versions in about five. Once Settle
// begins, the hook polls one last time, without the 50 ms wait: it fires
// if a doomed block is staged then, and otherwise never — the stream may
// have ended and retired every block the doomed node held.
func (el *elastic) startChaos(node, after int) {
	el.chaosHooks.Add(1)
	go func() {
		defer el.chaosHooks.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		last, stable := -1, 0
		for {
			select {
			case <-el.stop:
				return
			case <-t.C:
			}
			final := el.chaosOff.Load()
			staged := el.fw.SharedSpace().Staged()
			n := len(staged)
			if after == 0 && n != last {
				last, stable = n, 0
			} else {
				stable++
			}
			ready := n > 0 && n >= after && (after > 0 || final || stable >= 50)
			if ready && el.stagedOn(staged, cluster.NodeID(node)) {
				fmt.Printf("chaos: killing codsnode %d (%d blocks staged)\n", node, n)
				el.chaosKills.Add(1)
				el.tc.kill(node)
				return
			}
			if final {
				return
			}
		}
	}()
}

// stagedOn reports whether one of the staged blocks owned by a core of
// node is fully staged: the lookup answers a query for its region with its
// record. The insert follows the acknowledged expose, so the record's
// presence means the node's current process holds the block — a kill now
// strands it.
func (el *elastic) stagedOn(staged []icods.StagedBlock, node cluster.NodeID) bool {
	sp := el.fw.SharedSpace()
	m := sp.Fabric().Machine()
	for _, b := range staged {
		if m.NodeOf(b.Owner) != node {
			continue
		}
		entries, err := sp.Lookup().ClientAt(b.Owner).Query("chaos", b.App, b.Var, b.Version, b.Region)
		if err != nil {
			continue // not answerable yet: poll again
		}
		for _, e := range entries {
			if e.Owner == b.Owner && e.Region.Equal(b.Region) {
				return true
			}
		}
	}
	return false
}

// Stop halts the elastic loop and stops keeping payloads.
func (el *elastic) Stop() {
	close(el.stop)
	<-el.done
	el.chaosHooks.Wait()
	el.fw.SharedSpace().SetKeepPayloads(false)
}
