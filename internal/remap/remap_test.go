package remap

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/membership"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

func mustMachine(t *testing.T, nodes, cores int) *cluster.Machine {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

// matrixCell builds one inter-app cell of a synthetic flow matrix.
func matrixCell(src, dst int, bytes int64) obs.FlowCell {
	medium := cluster.Network
	if src == dst {
		medium = cluster.SharedMemory
	}
	return obs.FlowCell{Src: src, Dst: dst, Medium: medium.String(),
		Class: cluster.InterApp.String(), Bytes: bytes}
}

func TestProposeMovesHotBlockToItsReader(t *testing.T) {
	m := mustMachine(t, 2, 2)
	box := geometry.BoxFromSize([]int{4, 4})
	blocks := []membership.Block{
		{Var: "u", Version: 0, Region: box, Owner: m.CoreOn(0, 1)},
	}
	fm := obs.FlowMatrix{Cells: []obs.FlowCell{
		matrixCell(0, 1, 1024), // node 1 pulls everything node 0 stores
	}}
	p := Propose(m, fm, blocks, Options{})
	if len(p.Moves) != 1 {
		t.Fatalf("planned %d moves, want 1: %+v", len(p.Moves), p)
	}
	mv := p.Moves[0]
	if got, want := mv.To, m.CoreOn(1, 1); got != want {
		t.Fatalf("move target core %d, want %d (same slot on the reader's node)", got, want)
	}
	if mv.Gain != 1024 {
		t.Fatalf("gain %d, want 1024", mv.Gain)
	}
	if p.StaticNetBytes != 1024 || p.PlannedNetBytes != 0 {
		t.Fatalf("scores static=%d planned=%d, want 1024/0", p.StaticNetBytes, p.PlannedNetBytes)
	}
}

func TestProposeKeepsLocallyReadBlocks(t *testing.T) {
	m := mustMachine(t, 2, 2)
	box := geometry.BoxFromSize([]int{4, 4})
	blocks := []membership.Block{{Var: "u", Version: 0, Region: box, Owner: m.CoreOn(0, 0)}}
	fm := obs.FlowMatrix{Cells: []obs.FlowCell{
		matrixCell(0, 0, 4096), // mostly local reads
		matrixCell(0, 1, 512),  // a thin remote tail
	}}
	p := Propose(m, fm, blocks, Options{})
	if len(p.Moves) != 0 {
		t.Fatalf("planned %d moves, want 0 (local share dominates): %+v", len(p.Moves), p.Moves)
	}
	if p.PlannedNetBytes != p.StaticNetBytes {
		t.Fatalf("planned %d != static %d for an empty plan", p.PlannedNetBytes, p.StaticNetBytes)
	}
}

func TestProposeMinGainKeepsStatic(t *testing.T) {
	m := mustMachine(t, 2, 2)
	box := geometry.BoxFromSize([]int{4, 4})
	blocks := []membership.Block{
		{Var: "u", Version: 0, Region: box, Owner: m.CoreOn(0, 0)},
		{Var: "w", Version: 0, Region: box, Owner: m.CoreOn(1, 0)},
	}
	fm := obs.FlowMatrix{Cells: []obs.FlowCell{
		matrixCell(0, 1, 100),   // u: tiny win from moving to node 1
		matrixCell(1, 1, 10000), // w stays put
		matrixCell(1, 0, 9000),  // and accounts for most inter-node bytes
	}}
	if p := Propose(m, fm, blocks, Options{MinGain: 0.5}); len(p.Moves) != 0 {
		t.Fatalf("planned %d moves under a 50%% gain floor, want 0", len(p.Moves))
	}
	if p := Propose(m, fm, blocks, Options{}); len(p.Moves) == 0 {
		t.Fatalf("planned no moves without a gain floor, want the small win taken")
	}
}

func TestProposeMaxMovesTakesLargestGains(t *testing.T) {
	m := mustMachine(t, 3, 1)
	boxA := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4})
	boxB := geometry.NewBBox(geometry.Point{4, 0}, geometry.Point{8, 4})
	blocks := []membership.Block{
		{Var: "a", Version: 0, Region: boxA, Owner: m.CoreOn(0, 0)},
		{Var: "b", Version: 0, Region: boxB, Owner: m.CoreOn(1, 0)},
	}
	fm := obs.FlowMatrix{Cells: []obs.FlowCell{
		matrixCell(0, 2, 100),
		matrixCell(1, 2, 900),
	}}
	p := Propose(m, fm, blocks, Options{MaxMoves: 1})
	if len(p.Moves) != 1 {
		t.Fatalf("planned %d moves, want 1", len(p.Moves))
	}
	if p.Moves[0].Block.Var != "b" {
		t.Fatalf("kept move %q, want the larger gain %q", p.Moves[0].Block.Var, "b")
	}
}

// TestApplyMigratesByteIdentically drives the full loop — stage away from
// the consumer's node, pull (observing the skew), plan, apply, re-pull — on
// an in-process fabric and over loopback sockets, a driver and one serving
// node per node, where every block starts on nodes 1..3 of a 4x4 machine
// and the only consumer sits on node 0. The re-pull must be cell-identical,
// every block must have followed its reader, and the inter-node coupled
// bytes of one pull must fall by the row's floor.
func TestApplyMigratesByteIdentically(t *testing.T) {
	const prodApp, consApp = 1, 2
	rows := []struct {
		name         string
		nodes, cores int
		tcp          bool
		grid, side   [2]int // blocks per dimension, cells per block side
		owner        func(m *cluster.Machine, n int) cluster.CoreID
		consumer     func(m *cluster.Machine) cluster.CoreID
		minReduction float64
	}{
		{
			name: "inproc", nodes: 2, cores: 2,
			grid: [2]int{2, 1}, side: [2]int{4, 8},
			owner:        func(m *cluster.Machine, n int) cluster.CoreID { return m.CoreOn(0, n) },
			consumer:     func(m *cluster.Machine) cluster.CoreID { return m.CoreOn(1, 0) },
			minReduction: 1,
		},
		{
			name: "tcp", nodes: 4, cores: 4, tcp: true,
			grid: [2]int{4, 4}, side: [2]int{32, 32},
			owner: func(m *cluster.Machine, n int) cluster.CoreID {
				remote := m.TotalCores() - m.CoresPerNode()
				return cluster.CoreID(m.CoresPerNode() + n%remote)
			},
			consumer:     func(m *cluster.Machine) cluster.CoreID { return 0 },
			minReduction: 0.15,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := mustMachine(t, row.nodes, row.cores)
			f := transport.NewFabric(m)
			domain := geometry.BoxFromSize([]int{row.grid[0] * row.side[0], row.grid[1] * row.side[1]})
			if row.tcp {
				p := retry.Default()
				p.Deadline = 10 * time.Second
				nodes, err := node.NewCluster(f, domain, tcpnet.Config{Retry: p})
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				defer nodes.Close()
			}
			sp, err := cods.NewSpace(f, domain)
			if err != nil {
				t.Fatalf("NewSpace: %v", err)
			}
			ledger := membership.NewLedger()
			sp.SetPutRecorder(ledger)

			n := 0
			for bx := 0; bx < row.grid[0]; bx++ {
				for by := 0; by < row.grid[1]; by++ {
					rg := geometry.NewBBox(
						geometry.Point{bx * row.side[0], by * row.side[1]},
						geometry.Point{(bx + 1) * row.side[0], (by + 1) * row.side[1]})
					data := make([]float64, rg.Volume())
					for j := range data {
						data[j] = float64(n*1000 + j)
					}
					h := sp.HandleAt(row.owner(m, n), prodApp, "put")
					if err := h.PutSequential("u", 0, rg, data); err != nil {
						t.Fatalf("PutSequential: %v", err)
					}
					n++
				}
			}
			consumer := sp.HandleAt(row.consumer(m), consApp, "get")
			coupledNet := func() int64 { return m.Metrics().Bytes(cluster.InterApp, cluster.Network) }
			before, err := consumer.GetSequential("u", 0, domain)
			if err != nil {
				t.Fatalf("GetSequential (static): %v", err)
			}
			staticNet := coupledNet()
			if staticNet == 0 {
				t.Fatal("the skewed staging moved no inter-node coupled bytes")
			}

			fm := obs.BuildFlowMatrix(m.Metrics().Flows(""))
			plan := Propose(m, fm, ledger.Blocks(), Options{})
			if len(plan.Moves) != n {
				t.Fatalf("planned %d moves, want all %d staged blocks: %+v", len(plan.Moves), n, plan)
			}
			moved, err := Apply(sp, ledger, plan, "remap")
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if moved != n {
				t.Fatalf("moved %d blocks, want %d", moved, n)
			}

			after, err := consumer.GetSequential("u", 0, domain)
			if err != nil {
				t.Fatalf("GetSequential (remapped): %v", err)
			}
			if len(after) != len(before) {
				t.Fatalf("result length changed: %d vs %d", len(after), len(before))
			}
			for i := range after {
				if after[i] != before[i] {
					t.Fatalf("cell %d differs after remap: %v vs %v", i, after[i], before[i])
				}
			}
			remapNet := coupledNet() - staticNet
			if reduction := 1 - float64(remapNet)/float64(staticNet); reduction < row.minReduction {
				t.Fatalf("inter-node coupled bytes per pull %d -> %d (-%.1f%%), want at least -%.0f%%",
					staticNet, remapNet, 100*reduction, 100*row.minReduction)
			}
			// The ledger must have followed the migration.
			home := m.NodeOf(row.consumer(m))
			for _, b := range ledger.Blocks() {
				if got := m.NodeOf(b.Owner); got != home {
					t.Fatalf("ledger block %v still owned on node %d, want %d", b.Region, got, home)
				}
			}
		})
	}
}

// TestApplyRefusesDiscardedBlock: a plan made before one of its blocks was
// discarded must not bring that block back. Apply fails naming it, and
// neither the ledger nor the lookup service holds it afterwards.
func TestApplyRefusesDiscardedBlock(t *testing.T) {
	m := mustMachine(t, 2, 2)
	f := transport.NewFabric(m)
	domain := geometry.BoxFromSize([]int{8, 4})
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	ledger := membership.NewLedger()
	sp.SetPutRecorder(ledger)
	for slot, v := range []string{"a", "b"} {
		rg := geometry.NewBBox(geometry.Point{4 * slot, 0}, geometry.Point{4 * (slot + 1), 4})
		if err := sp.HandleAt(m.CoreOn(0, slot), 1, "put").PutSequential(v, 0, rg, make([]float64, rg.Volume())); err != nil {
			t.Fatalf("PutSequential %s: %v", v, err)
		}
	}
	consumer := sp.HandleAt(m.CoreOn(1, 0), 2, "get")
	for slot, v := range []string{"a", "b"} {
		rg := geometry.NewBBox(geometry.Point{4 * slot, 0}, geometry.Point{4 * (slot + 1), 4})
		if _, err := consumer.GetSequential(v, 0, rg); err != nil {
			t.Fatalf("GetSequential %s: %v", v, err)
		}
	}
	plan := Propose(m, obs.BuildFlowMatrix(m.Metrics().Flows("")), ledger.Blocks(), Options{})
	if len(plan.Moves) != 2 {
		t.Fatalf("planned %d moves, want both blocks: %+v", len(plan.Moves), plan)
	}
	gone := plan.Moves[0].Block
	if err := sp.HandleAt(gone.Owner, 1, "discard").DiscardSequential(gone.Var, gone.Version, gone.Region); err != nil {
		t.Fatalf("DiscardSequential: %v", err)
	}

	moved, err := Apply(sp, ledger, plan, "remap")
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", gone.Var)) ||
		!strings.Contains(err.Error(), gone.Region.String()) {
		t.Fatalf("Apply = %d, %v; want an error naming block %q %v", moved, err, gone.Var, gone.Region)
	}
	if moved != 0 {
		t.Fatalf("Apply moved %d blocks before the discarded one, want 0", moved)
	}
	for _, b := range ledger.Blocks() {
		if b.Var == gone.Var {
			t.Fatalf("the ledger holds discarded block %q again, at core %d", b.Var, b.Owner)
		}
	}
	if _, err := consumer.GetSequential(gone.Var, gone.Version, gone.Region); err == nil {
		t.Fatalf("a get of discarded block %q succeeds after Apply", gone.Var)
	}
}
