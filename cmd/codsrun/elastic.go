package main

// The driver side of the elastic membership layer (DESIGN §5h): every
// codsnode registers in a lease registry, a monitor renews the leases by
// probing the children over the wire, and a reconcile loop sweeps for
// expired leases — a crash — then converges: reap the corpse, spawn a
// replacement at a higher incarnation, install its route on the driver's
// backend (the only process that dials), and re-stage the crashed node's
// staged blocks from the driver's put ledger while in-flight pulls retry
// against the re-validated routing.

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/membership"
)

// elastic bundles the membership mechanisms of one -elastic run.
type elastic struct {
	o      options
	fw     *cods.Framework
	tc     *tcpCluster
	reg    *membership.Registry
	ledger *membership.Ledger
	mon    *membership.Monitor

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

// startElastic joins every codsnode into the lease registry, installs the
// put ledger, and starts the lease monitor and the reconcile loop.
func startElastic(fw *cods.Framework, o options, tc *tcpCluster) (*elastic, error) {
	el := &elastic{
		o: o, fw: fw, tc: tc,
		reg:    membership.NewRegistry(o.leaseTTL),
		ledger: membership.NewLedger(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Membership events become trace spans when the run traces at all, so
	// a crash and its recovery are visible inline with the pulls they
	// disrupted.
	if tr := fw.SpanTracer(); tr != nil {
		el.reg.SetEventHook(func(ev string, node cluster.NodeID) {
			tr.Event(0, fmt.Sprintf("membership.%s node %d", ev, node))
		})
	}
	for node := 0; node < o.nodes; node++ {
		if err := el.reg.Join(cluster.NodeID(node), tc.addr(node), 1); err != nil {
			return nil, err
		}
	}
	fw.SharedSpace().SetPutRecorder(el.ledger)
	interval := o.leaseTTL / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	el.mon = membership.NewMonitor(el.reg, interval, func(node cluster.NodeID, inc uint64) error {
		_, err := tc.be.ProbeLease(node, inc)
		return err
	})
	el.mon.Start()
	go el.loop(interval)
	return el, nil
}

// loop sweeps the registry for expired leases and converges on each
// topology change until stopped.
func (el *elastic) loop(interval time.Duration) {
	defer close(el.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-el.stop:
			return
		case <-t.C:
			if expired := el.reg.Sweep(); len(expired) > 0 {
				el.converge(expired)
			}
		}
	}
}

// converge replaces each expired node's process — reap, spawn at the next
// incarnation, route the driver's backend to it, re-join — then reconciles,
// so the crashed processes' staged blocks are re-staged and every lookup
// record and cached schedule reflects the new processes. The replacement
// takes the dead node's slot, so who owns which DHT interval is unchanged.
func (el *elastic) converge(expired []cluster.NodeID) {
	el.converging.Store(true)
	defer el.converging.Store(false)
	for _, node := range expired {
		el.tc.reap(int(node))
		inc := el.reg.Incarnation(node) + 1
		addr, err := el.tc.spawnNode(int(node), inc)
		if err != nil {
			el.fail(fmt.Errorf("membership: replacing node %d: %w", node, err))
			return
		}
		el.tc.be.UpdatePeer(node, addr, inc)
		if err := el.reg.Join(node, addr, inc); err != nil {
			el.fail(err)
			return
		}
	}
	res, err := membership.Reconcile(el.fw.SharedSpace(), el.ledger, expired)
	if err != nil {
		el.fail(err)
		return
	}
	el.mu.Lock()
	el.results = append(el.results, res)
	el.mu.Unlock()
	fmt.Printf("membership: reconciled %d node(s): re-staged %d blocks (%d B), re-registered %d records\n",
		len(res.Affected), res.RestagedCount, res.MigratedBytes, res.Reinserted)
}

func (el *elastic) fail(err error) {
	fmt.Printf("membership: convergence failed: %v\n", err)
	el.mu.Lock()
	if el.failure == nil {
		el.failure = err
	}
	el.mu.Unlock()
}

// Err returns the first convergence failure, if any.
func (el *elastic) Err() error {
	el.mu.Lock()
	defer el.mu.Unlock()
	return el.failure
}

// totals sums every reconcile pass — the external side of the report's
// membership reconciliation.
func (el *elastic) totals() membership.Result {
	el.mu.Lock()
	defer el.mu.Unlock()
	var tot membership.Result
	for _, r := range el.results {
		tot.Affected = append(tot.Affected, r.Affected...)
		tot.RestagedCount += r.RestagedCount
		tot.MigratedBytes += r.MigratedBytes
		tot.Reinserted += r.Reinserted
	}
	return tot
}

// members snapshots the registry for the obs /members endpoint.
func (el *elastic) members() any { return el.reg.Members() }

// membersJSON renders the member snapshot for the report metadata.
func (el *elastic) membersJSON() string {
	data, err := json.Marshal(el.reg.Members())
	if err != nil {
		return ""
	}
	return string(data)
}

// Settle stops the crash hooks, then waits until no convergence is in
// flight, every member holds a live lease and every kill that fired was
// recovered, then surfaces any convergence failure — called between the
// workflow and stats collection so the driver only talks to settled
// children.
func (el *elastic) Settle(timeout time.Duration) error {
	el.chaosOff.Store(true)
	el.chaosHooks.Wait()
	deadline := time.Now().Add(timeout)
	for {
		if err := el.Err(); err != nil {
			return err
		}
		recovered := int64(len(el.totals().Affected))
		if !el.converging.Load() && el.allAlive() && recovered >= el.chaosKills.Load() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership: convergence did not settle within %s", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (el *elastic) allAlive() bool {
	for _, m := range el.reg.Members() {
		if m.State != "alive" {
			return false
		}
	}
	return true
}

// startChaos arms the crash hook: once the put ledger shows staging done —
// at least `after` blocks, or no growth for 50 ms when after is 0 — and a
// block the doomed node owns is fully staged there (stagedOn), the node's
// codsnode child is hard-killed in that same poll, and recovery is left
// entirely to lease expiry and the reconcile loop. A ledger record alone
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
			n := el.ledger.Len()
			if after == 0 && n != last {
				last, stable = n, 0
			} else {
				stable++
			}
			ready := n > 0 && n >= after && (after > 0 || final || stable >= 50)
			if ready && el.stagedOn(cluster.NodeID(node)) {
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

// stagedOn reports whether some ledger block owned by a core of node is
// fully staged: the lookup answers a query for its region with its record.
// The insert follows the acknowledged expose, so the record's presence
// means the node's current process holds the block — a kill now strands it.
func (el *elastic) stagedOn(node cluster.NodeID) bool {
	sp := el.fw.SharedSpace()
	m := sp.Fabric().Machine()
	for _, b := range el.ledger.Blocks() {
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

// Stop halts the monitor and the reconcile loop and detaches the ledger.
func (el *elastic) Stop() {
	el.mon.Stop()
	close(el.stop)
	<-el.done
	el.chaosHooks.Wait()
	el.fw.SharedSpace().SetPutRecorder(nil)
}
