// Package membership implements the recovery half of the elastic cluster
// layer. Detection is not here: the driver that spawned a serving process
// (codsnode) learns of its death when the child exits. A lost process is
// replaced in its node's slot, so the DHT interval assignment never changes
// and recovery is one function: Reconcile re-stages the lost node's blocks
// from the space's staged table, which keeps their payloads while
// cods.Space.SetKeepPayloads is on, and re-registers every other block's
// location records (some lived in the lost node's table), while in-flight
// pulls retry.
package membership

import (
	"fmt"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/dht"
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

// Result is the accounting of one reconcile pass. MigratedBytes must
// reconcile delta-0 against the membership.migrated_bytes counter.
type Result struct {
	Affected      []cluster.NodeID
	RestagedCount int64
	MigratedBytes int64
	Reinserted    int64
}

// Reconcile converges the space after the affected nodes lost their serving
// process and a replacement took each one's slot: every sequentially staged
// block (cods.Space.Staged) owned by a core of an affected node is
// re-staged in place from its kept payload; every other block
// has its location record re-registered — it may have lived in an affected
// node's table, and inserts are idempotent where it did not. A re-stage's
// discard bumps its variable's schedule generation, so no cached schedule
// outlives it; the survivors keep their owners, so schedules naming them
// stay valid. Run against a space that lost nothing, it changes nothing.
func Reconcile(sp *cods.Space, affected []cluster.NodeID) (Result, error) {
	res := Result{Affected: append([]cluster.NodeID(nil), affected...)}
	hit := make(map[cluster.NodeID]bool, len(affected))
	for _, n := range affected {
		hit[n] = true
	}
	machine := sp.Fabric().Machine()
	for _, b := range sp.Staged() {
		if hit[machine.NodeOf(b.Owner)] {
			// Withdraw the exposure and location record, then put the kept
			// payload back at the same core. An absent buffer is no error:
			// the owner's process may be gone, or the producer's own retry
			// re-staged the block first. The staged table follows (the
			// discard drops the block's record, the put writes it again);
			// like any failed PutSequential, a failed re-stage leaves the
			// block out of it.
			if b.Data == nil {
				return res, fmt.Errorf("membership: %q v%d %v at core %d: no payload kept to re-stage (cods.Space.SetKeepPayloads)",
					b.Var, b.Version, b.Region, b.Owner)
			}
			h := sp.HandleAt(b.Owner, b.App, "elastic")
			if err := h.DiscardSequential(b.Var, b.Version, b.Region); err != nil {
				return res, fmt.Errorf("membership: withdrawing %q v%d %v at core %d: %w", b.Var, b.Version, b.Region, b.Owner, err)
			}
			if err := h.PutSequential(b.Var, b.Version, b.Region, b.Data); err != nil {
				return res, fmt.Errorf("membership: re-staging %q v%d %v at core %d: %w", b.Var, b.Version, b.Region, b.Owner, err)
			}
			bytes := int64(len(b.Data)) * cods.ElemSize
			res.RestagedCount++
			res.MigratedBytes += bytes
			obsMigBlocks.Inc()
			obsMigBytes.Add(bytes)
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
