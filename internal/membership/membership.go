// Package membership implements the recovery half of the elastic cluster
// layer. Detection is not here: the driver that spawned a serving process
// (codsnode) learns of its death when the child exits. A lost process is
// replaced in its node's slot, so the DHT interval assignment never changes
// and recovery is one function: Reconcile re-stages the lost node's blocks
// from the put ledger and re-registers every other block's location records
// (some lived in the lost node's table), while in-flight pulls retry.
package membership

import (
	"fmt"
	"sort"
	"sync"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
)

// Recovery instruments: the driver report reconciles each against the
// reconciler's summed results.
var (
	obsMigBytes  = obs.C("membership.migrated_bytes")
	obsMigBlocks = obs.C("membership.migrated_blocks")
	obsReinserts = obs.C("membership.reinserted_records")
)

// Block is one ledger record of a sequentially staged block: enough to
// re-stage it byte-identically, in the lookup namespace of the application
// that staged it, at its owner.
type Block struct {
	Var     string
	Version int
	Region  geometry.BBox
	Owner   cluster.CoreID
	App     int
	Data    []float64
}

// Bytes returns the staged payload size of the block.
func (b Block) Bytes() int64 { return int64(len(b.Data)) * 8 }

func blockKey(v string, version int, region geometry.BBox, owner cluster.CoreID) string {
	return fmt.Sprintf("%s|%d|%s|%d", v, version, region.String(), owner)
}

// Ledger records every sequentially staged block in the driver's memory —
// the durable side channel the reconcile loop re-stages from when an
// owner crashes without handing its buffers off. It implements
// cods.PutRecorder.
type Ledger struct {
	mu     sync.Mutex
	blocks map[string]Block
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{blocks: make(map[string]Block)}
}

// RecordPut records a staged block (cods.PutRecorder). The block keeps the
// put's data slice, which the space owns: the ledger holds no second copy.
func (l *Ledger) RecordPut(v string, version int, region geometry.BBox, owner cluster.CoreID, app int, data []float64) {
	b := Block{Var: v, Version: version, Region: region.Clone(), Owner: owner, App: app, Data: data}
	l.mu.Lock()
	l.blocks[blockKey(v, version, region, owner)] = b
	l.mu.Unlock()
}

// RecordDiscard drops a block's record (cods.PutRecorder).
func (l *Ledger) RecordDiscard(v string, version int, region geometry.BBox, owner cluster.CoreID) {
	l.mu.Lock()
	delete(l.blocks, blockKey(v, version, region, owner))
	l.mu.Unlock()
}

// Blocks returns a snapshot of every recorded block, sorted by key so
// convergence order is deterministic.
func (l *Ledger) Blocks() []Block {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.blocks))
	for k := range l.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Block, 0, len(keys))
	for _, k := range keys {
		out = append(out, l.blocks[k])
	}
	return out
}

// Len returns the number of recorded blocks.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.blocks)
}

// Result is the accounting of one reconcile pass. MigratedBytes must
// reconcile delta-0 against the membership.migrated_bytes counter.
type Result struct {
	Affected      []cluster.NodeID
	RestagedCount int64
	MigratedBytes int64
	Reinserted    int64
}

// Reconcile converges the space after the affected nodes lost their serving
// process and a replacement took each one's slot: every ledger block owned
// by a core of an affected node is re-staged in place; every other block
// has its location record re-registered — it may have lived in an affected
// node's table, and inserts are idempotent where it did not. A re-stage's
// discard bumps its variable's schedule generation, so no cached schedule
// outlives it; the survivors keep their owners, so schedules naming them
// stay valid. Run against a space that lost nothing, it changes nothing.
func Reconcile(sp *cods.Space, ledger *Ledger, affected []cluster.NodeID) (Result, error) {
	res := Result{Affected: append([]cluster.NodeID(nil), affected...)}
	hit := make(map[cluster.NodeID]bool, len(affected))
	for _, n := range affected {
		hit[n] = true
	}
	machine := sp.Fabric().Machine()
	for _, b := range ledger.Blocks() {
		if hit[machine.NodeOf(b.Owner)] {
			// Withdraw the exposure and location record, then put the
			// ledger's copy back at the same core. An absent buffer is no
			// error: the owner's process may be gone, or the producer's own
			// retry re-staged the block first. The put recorder follows
			// (the discard drops the record, the put writes it again); like
			// any failed PutSequential, a failed re-stage leaves the block
			// off the ledger.
			h := sp.HandleAt(b.Owner, b.App, "elastic")
			if err := h.DiscardSequential(b.Var, b.Version, b.Region); err != nil {
				return res, fmt.Errorf("membership: withdrawing %q v%d %v at core %d: %w", b.Var, b.Version, b.Region, b.Owner, err)
			}
			if err := h.PutSequential(b.Var, b.Version, b.Region, b.Data); err != nil {
				return res, fmt.Errorf("membership: re-staging %q v%d %v at core %d: %w", b.Var, b.Version, b.Region, b.Owner, err)
			}
			res.RestagedCount++
			res.MigratedBytes += b.Bytes()
			obsMigBlocks.Inc()
			obsMigBytes.Add(b.Bytes())
			continue
		}
		if mutate.Enabled(mutate.ReconcileSkipReinsert) {
			continue // seeded defect: the survivors' records stay lost
		}
		err := sp.Lookup().ClientAt(b.Owner).Insert("elastic", b.App,
			dht.Entry{Var: b.Var, Version: b.Version, Region: b.Region, Owner: b.Owner})
		if err != nil {
			return res, fmt.Errorf("membership: re-registering %q v%d %v: %w", b.Var, b.Version, b.Region, err)
		}
		res.Reinserted++
		obsReinserts.Inc()
	}
	return res, nil
}
