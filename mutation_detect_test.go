//go:build conformance_mutations

package cods_test

// Mutation check for the conformance harness (DESIGN §5e): with the
// conformance_mutations build tag, internal/mutate seeds one defect per
// CODS_MUTATION value into a different layer of the pipeline. Each
// directed scenario below must pass with its mutation disabled and fail
// with it enabled — proving the harness actually exercises the layer the
// defect lives in. Run with:
//
//	go test -tags conformance_mutations -run TestMutationDetection .

import (
	"fmt"
	"testing"
	"time"

	"github.com/insitu/cods/internal/conformance"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/genwf"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/sfc"
)

// mutationScenario returns the directed scenario detecting one seeded
// defect. Randomized sweeps catch most of these too; the directed ones
// make each detection deterministic.
func mutationScenario(name string) genwf.Scenario {
	switch name {
	case mutate.GeomIntersect:
		// Ghost halos make every sequential schedule intersect stored
		// blocks with wider get regions; the clipped upper bound loses a
		// row and the schedule no longer covers the region.
		return genwf.Scenario{
			Seed: 0xA, Nodes: 2, CoresPerNode: 2, Domain: []int{8, 8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2, 2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2, 2},
			Vars: 1, Ghost: 1, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.SfcSpanSplit:
		// 1-D domain of 16 over 8 lookup nodes (two SFC indices each).
		// The producer's second block [8,16) registers on nodes 4..7; the
		// consumer's ghost region [0,9) queries — mutated to [0,8) — only
		// nodes 0..3 and misses the entry entirely.
		return genwf.Scenario{
			Seed: 0xB, Nodes: 8, CoresPerNode: 1, Domain: []int{16},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 1, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.SchedDropTransfer:
		// One consumer pulling the whole domain from two producer blocks:
		// a two-transfer schedule, so dropping the last transfer leaves
		// half the cells zero.
		return genwf.Scenario{
			Seed: 0xC, Nodes: 2, CoresPerNode: 2, Domain: []int{16},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{1},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.StaleEpoch:
		// Restaging moves every block one node over; a schedule cache
		// that ignores the invalidation stamp keeps pulling the old,
		// unexposed buffer and blocks forever (caught by the watchdog).
		return genwf.Scenario{
			Seed: 0xD, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
			Restage: true,
		}
	case mutate.SwapFlow:
		// Producers fill node 0, consumers node 1: all coupling flows
		// cross 0 -> 1. Swapped endpoints keep every per-medium total
		// identical — only the per-(src, dst) flow aggregation catches it.
		return genwf.Scenario{
			Seed: 0xE, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: false, Staged: true,
			ProdKind: decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.NoRequery:
		// A single-transfer schedule under a fault window that outlasts
		// the per-transfer retry budget (2 attempts, first 2 reads fail):
		// only the requery path's fresh pull can succeed. Skipping it
		// turns a recoverable fault into a failed get.
		return genwf.Scenario{
			Seed: 0xF, Nodes: 1, CoresPerNode: 1, Domain: []int{8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{1},
			ConsKind: decomp.Blocked, ConsGrid: []int{1},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
			Faults: `{"seed": 1, "rules": [{"op": "read", "mode": "error", "from_op": 0, "to_op": 2}]}`,
			Retry:  2,
		}
	case mutate.TCPTruncFrame:
		// Producer block on node 1, single consumer on node 0: the pull and
		// its DHT lookups cross the wire under the TCP backend, where every
		// mutated frame is one byte short and the strict decoder rejects
		// it. The in-process leg of the cross-backend run stays green —
		// only the real network path carries the defect.
		return genwf.Scenario{
			Seed: 0x10, Nodes: 2, CoresPerNode: 1, Domain: []int{16},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{1},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.TCPMeterClass:
		// Same cross-node shape: the swapped class byte books the coupled
		// network pull as control traffic on the serving side. Data stays
		// byte-identical; the inter-app-bytes-vs-model invariant of the
		// TCP leg is what must catch it.
		return genwf.Scenario{
			Seed: 0x11, Nodes: 2, CoresPerNode: 1, Domain: []int{16},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{1},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.ObsFlowMisattribute:
		// Producers fill node 0, consumers node 1: the coupling flows
		// cross 0 -> 1. The defect re-credits cross-node cells to the
		// next node inside the obs aggregation only — the raw flow log
		// and every byte total stay correct, so only the flow-matrix
		// regrouping check (invariant 4b) can see it.
		return genwf.Scenario{
			Seed: 0x13, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: false, Staged: true,
			ProdKind: decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.TCPSGDrop, mutate.TCPSGReorder, mutate.TCPMsgEntryDrop:
		// Four producer blocks over a 2x2 machine, consumer on core 0:
		// the blocks on node 1 become one scatter-gather batch of two
		// segments with different cell data. The drop defect announces and
		// streams one segment short (the client's count check fails the
		// pull); the reorder defect swaps the two payloads under intact
		// indices, which only the cross-backend byte-identity catches. The
		// same two blocks are the two entries node 1's DHT core answers the
		// consumer's query with — the one lookup that crosses the wire — so
		// a response decoder that forgets its last entry leaves the get a
		// quarter of the domain short of coverage.
		return genwf.Scenario{
			Seed: 0x12, Nodes: 2, CoresPerNode: 2, Domain: []int{32},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{4},
			ConsKind: decomp.Blocked, ConsGrid: []int{1},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.TCPBlockShift, mutate.TCPClipRowSkew:
		// Two producer blocks of 4x8 staged through the driver, so each
		// crosses the wire and its owning node keeps the block it decoded;
		// eight consumers read 4x2 boxes, each a clip of four rows, most of
		// them strictly inside their block along the rows. A block decoded
		// one cell over still covers an interior box, with its neighbours'
		// values; a clip whose later rows start one cell late keeps every
		// segment's length. Both put wrong cells where the model has the
		// right ones, and only on the TCP leg.
		return genwf.Scenario{
			Seed: 0x19, Nodes: 2, CoresPerNode: 4, Domain: []int{8, 8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2, 1},
			ConsKind: decomp.Blocked, ConsGrid: []int{2, 4},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
		}
	case mutate.ReconcileSkipReinsert:
		// Both producer blocks are staged on node 0; the record of the
		// second, [4,8), lies in the upper half of the index space and so
		// in node 1's table alone. Node 1 is lost on the TCP leg, the one
		// with a process to lose: a reconcile that re-stages the lost
		// node's blocks (there are none) but skips re-registering the
		// survivors' leaves that record lost, and the owner check after the
		// reconcile sees no entry where the model predicts one.
		return genwf.Scenario{
			Seed: 0x14, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
			Kill: 2,
		}
	case mutate.StaleWatermarkServed:
		// Three rounds, lag bound three, consumers striding every third
		// round: at the single consume the floor (0) is far below the
		// watermark (2), so the mutated latest-value read serves the
		// retained version 1 — the model answers version 2 with different
		// bytes, and the version comparison catches it deterministically.
		return genwf.Scenario{
			Seed: 0x15, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
			Stream: true, Drop: true, Rounds: 3, MaxLag: 3, ConsumeEvery: 3,
		}
	case mutate.GCBeforeConsume:
		// Lag bound two with a stride of two: the clean run never drops
		// (the retire bound trails the slowest cursor exactly). The
		// mutated bound retires one version consumers were still entitled
		// to at the round-1 watermark advance — the floor and cursor
		// positions diverge from the model immediately after that publish.
		return genwf.Scenario{
			Seed: 0x16, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
			Stream: true, Drop: true, Rounds: 4, MaxLag: 2, ConsumeEvery: 2,
		}
	case mutate.RemapStaleOwner:
		// One adaptive remap round migrates every staged block across
		// nodes. The defective move (membership.Restage to another core)
		// discards the source copy but leaves its location record registered, so the post-remap owner check
		// sees one entry more than the model predicts — and a pull routed
		// to the stale owner would double-cover its region.
		return genwf.Scenario{
			Seed: 0x18, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
			Remap: true,
		}
	case mutate.VersionSkipOnResubscribe:
		// Keep-up consumers resubscribe after round 2 from position 1: the
		// mutated resume lands at 2 and silently skips a version — the
		// position check against the model's cursor catches the gap before
		// any data is read.
		return genwf.Scenario{
			Seed: 0x17, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
			Sequential: true,
			ProdKind:   decomp.Blocked, ProdGrid: []int{2},
			ConsKind: decomp.Blocked, ConsGrid: []int{2},
			Vars: 1, Ghost: 0, Versions: 1, Mapping: genwf.Consecutive,
			Stream: true, Drop: true, Rounds: 3, MaxLag: 2, ConsumeEvery: 1, Resub: 2,
		}
	default:
		panic("unknown mutation " + name)
	}
}

// detectMortonBitSwap proves the linearizer suite catches a transposed
// Morton bit interleave. The defect is a consistent relabeling of the
// index space: DHT inserts and queries route through the same mutated
// Spans, so the scenario pipeline cannot see it — only the curve's own
// contracts (Decode inverts Encode; Spans covers exactly the box's cells
// under Encode) break, on any curve of two or more dimensions.
func detectMortonBitSwap(t *testing.T) {
	probe := func() error {
		m, err := sfc.NewMorton(2, 3)
		if err != nil {
			return err
		}
		for idx := uint64(0); idx < m.Total(); idx++ {
			p := m.Decode(idx)
			if back := m.Encode(p); back != idx {
				return fmt.Errorf("morton round trip broken: decode(%d) = %v encodes back to %d", idx, p, back)
			}
		}
		box := geometry.NewBBox(geometry.Point{1, 0}, geometry.Point{5, 3})
		covered := make(map[uint64]bool)
		for _, s := range m.Spans(box) {
			for idx := s.Start; idx < s.End; idx++ {
				covered[idx] = true
			}
		}
		var cells int
		for x := 1; x < 5; x++ {
			for y := 0; y < 3; y++ {
				cells++
				if idx := m.Encode(geometry.Point{x, y}); !covered[idx] {
					return fmt.Errorf("spans miss cell (%d,%d) at index %d", x, y, idx)
				}
			}
		}
		if len(covered) != cells {
			return fmt.Errorf("spans cover %d indices, box has %d cells", len(covered), cells)
		}
		return nil
	}
	if err := probe(); err != nil {
		t.Fatalf("morton contracts fail even without the mutation: %v", err)
	}
	t.Setenv("CODS_MUTATION", mutate.MortonBitSwap)
	if !mutate.Enabled(mutate.MortonBitSwap) {
		t.Fatal("mutation hooks not compiled in (missing -tags conformance_mutations?)")
	}
	err := probe()
	if err == nil {
		t.Fatalf("linearizer suite did not detect seeded defect %q", mutate.MortonBitSwap)
	}
	t.Logf("detected %q: %v", mutate.MortonBitSwap, err)
}

func TestMutationDetection(t *testing.T) {
	for _, name := range mutate.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == mutate.MortonBitSwap {
				// A consistent index-space relabeling is invisible to the
				// pipeline; the curve's own contracts catch it.
				detectMortonBitSwap(t)
				return
			}
			sc := mutationScenario(name)
			if err := sc.Validate(); err != nil {
				t.Fatalf("directed scenario invalid: %v", err)
			}
			opts := conformance.Options{Timeout: 10 * time.Second}
			if name == mutate.StaleEpoch {
				// Detection is a deliberate hang; keep the watchdog short.
				opts.Timeout = 3 * time.Second
			}
			// The wire defects only exist on the TCP path, and only the TCP
			// leg loses a node; they are what the cross-backend dimension of
			// the sweep must catch.
			runScenario := conformance.RunOpts
			switch name {
			case mutate.TCPTruncFrame, mutate.TCPMeterClass, mutate.TCPSGDrop, mutate.TCPSGReorder, mutate.TCPMsgEntryDrop,
				mutate.TCPBlockShift, mutate.TCPClipRowSkew, mutate.ReconcileSkipReinsert:
				runScenario = conformance.RunCrossOpts
			}

			// Sanity: the scenario passes with the mutation disabled —
			// what the suite detects is the defect, not the scenario.
			if err := runScenario(sc, opts); err != nil {
				t.Fatalf("scenario fails even without the mutation: %v", err)
			}

			t.Setenv("CODS_MUTATION", name)
			if !mutate.Enabled(name) {
				t.Fatal("mutation hooks not compiled in (missing -tags conformance_mutations?)")
			}
			err := runScenario(sc, opts)
			if err == nil {
				t.Fatalf("conformance suite did not detect seeded defect %q", name)
			}
			t.Logf("detected %q: %v", name, err)
		})
	}
}
