package bench

import (
	"fmt"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
)

// StagingComparison quantifies the argument of the paper's related-work
// section (VI): staging-area systems (the DataSpaces lineage) share
// coupled data indirectly through dedicated staging nodes, which costs two
// data movements — producer to staging, staging to consumer — both over
// the network; CoDS's in-situ sharing keeps the data on the compute nodes
// and moves most of it through shared memory.
//
// The sequential scenario is modeled with one staging node per eight
// compute nodes (a typical staging allocation). Every producer block is
// staged on a staging node chosen round-robin; consumers pull from the
// staging area.
func StagingComparison(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "staging",
		Title:   "Staging area vs. in-situ sharing (sequential scenario, blocked/blocked)",
		Columns: []string{"approach", "network (GB)", "movements", "retrieval (ms)"},
		Notes: []string{
			"staging-area sharing pays producer->staging AND staging->consumer network transfers; in-situ sharing stores data where it is produced and consumes most of it node-locally",
		},
	}
	ss, err := NewSequential(sc, Patterns()[0])
	if err != nil {
		return nil, err
	}
	_, dcPl, err := ss.ConsumerPlacements()
	if err != nil {
		return nil, err
	}
	consumers := []graph.App{ss.Cons2, ss.Cons3}

	// ---- In-situ (CoDS, client-side data-centric mapping). Stores cost
	// no movement (data stays in the producer task's memory); retrieval is
	// the consumers' pull phase.
	var insituNet int64
	var insituFlows []cluster.Flow
	for _, cons := range consumers {
		tr, err := mapping.CoupledTraffic(ss.Machine, ss.ProdPl, dcPl, ss.Prod, cons, ElemSize)
		if err != nil {
			return nil, err
		}
		insituNet += tr.Network
		fl, err := mapping.CoupledFlows(ss.ProdPl, dcPl, ss.Prod, cons, ElemSize, "get")
		if err != nil {
			return nil, err
		}
		insituFlows = append(insituFlows, fl...)
	}

	// ---- Staging area: compute nodes plus dedicated staging nodes on the
	// same fabric.
	computeNodes := ss.Machine.NumNodes()
	stagingNodes := (computeNodes + 7) / 8
	bigMachine, err := cluster.NewMachine(computeNodes+stagingNodes, sc.CoresPerNode)
	if err != nil {
		return nil, err
	}
	stagingOf := func(prodRank int) cluster.NodeID {
		return cluster.NodeID(computeNodes + prodRank%stagingNodes)
	}
	// Producer -> staging: every stored block crosses to its staging node.
	var stageInNet int64
	var stageInFlows []cluster.Flow
	for rp := 0; rp < ss.Prod.Decomp.NumTasks(); rp++ {
		bytes := ss.Prod.Decomp.OwnedVolume(rp) * ElemSize
		src, _ := ss.ProdPl.NodeOfTask(cluster.TaskID{App: ss.Prod.ID, Rank: rp})
		stageInNet += bytes
		stageInFlows = append(stageInFlows, cluster.Flow{Phase: "stage-in", Src: src, Dst: stagingOf(rp), Bytes: bytes})
	}
	// Staging -> consumer: each consumer piece comes from the staging node
	// of the producer block holding it. Consumers run on the compute nodes
	// (their placement is irrelevant for locality: nothing is node-local).
	var stageOutNet int64
	var stageOutFlows []cluster.Flow
	for _, cons := range consumers {
		ov, err := decomp.NewOverlap(ss.Prod.Decomp, cons.Decomp)
		if err != nil {
			return nil, err
		}
		consNode := make([]cluster.NodeID, cons.Decomp.NumTasks())
		for rc := range consNode {
			n, ok := dcPl.NodeOfTask(cluster.TaskID{App: cons.ID, Rank: rc})
			if !ok {
				return nil, fmt.Errorf("bench: consumer task %d unplaced", rc)
			}
			consNode[rc] = n
		}
		ov.EachPair(func(rp, rc int, vol int64) {
			stageOutNet += vol * ElemSize
			stageOutFlows = append(stageOutFlows, cluster.Flow{
				Phase: "stage-out", Src: stagingOf(rp), Dst: consNode[rc], Bytes: vol * ElemSize,
			})
		})
	}

	// Retrieval times: consumers' pull phase only (the paper's metric);
	// staging pulls fan into the few staging nodes.
	_, insituTime := torusFor(ss.Machine.NumNodes()).simulate(insituFlows)
	_, stagingTime := torusFor(bigMachine.NumNodes()).simulate(stageOutFlows)

	t.AddRow("staging area", gb(stageInNet+stageOutNet), "2 (in + out)", ms(stagingTime))
	t.AddRow("in-situ CoDS (data-centric)", gb(insituNet), "1 (direct pull)", ms(insituTime))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d compute nodes + %d staging nodes; staging network volume is in+out of the staging area",
		computeNodes, stagingNodes))
	return t, nil
}
