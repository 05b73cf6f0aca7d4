// Online data processing: the paper's first motivating scenario
// (Section II-A). A simulation streams its field every iteration to a
// concurrently running analysis application — the end-to-end I/O pipeline
// pattern of ADIOS-style in-situ processing — instead of writing files.
//
// The example runs the same workflow twice, once under the launcher
// baseline and once under the data-centric mapping, and prints the
// network/shared-memory split of the coupled data, reproducing the effect
// of the paper's Figure 8 on a laptop-sized configuration.
//
// Run with: go run ./examples/onlineproc
package main

import (
	"fmt"
	"log"

	cods "github.com/insitu/cods"
)

const (
	simulationID = 1
	analysisID   = 2
	iterations   = 4
)

// buildWorkflow wires one framework instance with the simulation and
// analysis applications.
func buildWorkflow() (*cods.Framework, *cods.DAG, error) {
	fw, err := cods.New(cods.Config{
		Nodes:        10,
		CoresPerNode: 4,
		Domain:       []int{32, 32, 32},
	})
	if err != nil {
		return nil, nil, err
	}
	simDecomp, err := fw.BlockedDecomposition([]int{4, 4, 2}) // 32 tasks
	if err != nil {
		return nil, nil, err
	}
	anaDecomp, err := fw.BlockedDecomposition([]int{2, 2, 2}) // 8 tasks
	if err != nil {
		return nil, nil, err
	}

	// The simulation: per iteration it advances its local state (here a
	// trivial stencil-flavoured update) and publishes the field.
	err = fw.RegisterApp(cods.AppSpec{
		ID:     simulationID,
		Decomp: simDecomp,
		Run: func(ctx *cods.AppContext) error {
			blocks := ctx.Decomp.Region(ctx.Rank)
			state := make(map[string][]float64, len(blocks))
			for _, b := range blocks {
				state[b.String()] = make([]float64, b.Volume())
			}
			for version := 0; version < iterations; version++ {
				ctx.Space.SetPhase(fmt.Sprintf("couple:%d:%d", simulationID, version))
				for _, b := range blocks {
					field := state[b.String()]
					for i := range field {
						field[i] += float64(version) // stand-in for the solver step
					}
					out := append([]float64(nil), field...)
					if err := ctx.Space.PutConcurrent("pressure", version, b, out); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}

	// The analysis: per iteration it pulls its region directly from the
	// simulation's memory and computes a local statistic, then reduces it
	// across the analysis ranks.
	err = fw.RegisterApp(cods.AppSpec{
		ID:     analysisID,
		Decomp: anaDecomp,
		Run: func(ctx *cods.AppContext) error {
			producer := ctx.Producers[simulationID]
			for version := 0; version < iterations; version++ {
				ctx.Space.SetPhase(fmt.Sprintf("couple:%d:%d", analysisID, version))
				localSum := 0.0
				for _, region := range ctx.Decomp.Region(ctx.Rank) {
					field, err := ctx.Space.GetConcurrent(producer, "pressure", version, region)
					if err != nil {
						return err
					}
					for _, v := range field {
						localSum += v
					}
				}
				global, err := ctx.Comm.Allreduce(0, []float64{localSum})
				if err != nil {
					return err
				}
				want := float64(version*(version+1)/2) * 32 * 32 * 32
				if ctx.Rank == 0 && global[0] != want {
					return fmt.Errorf("iteration %d: global sum %v, want %v", version, global[0], want)
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}

	dag, err := cods.NewWorkflow([]int{simulationID, analysisID}, nil,
		[][]int{{simulationID, analysisID}})
	if err != nil {
		return nil, nil, err
	}
	return fw, dag, nil
}

func main() {
	for _, policy := range []cods.Policy{cods.RoundRobin, cods.DataCentric} {
		fw, dag, err := buildWorkflow()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := fw.RunWorkflow(dag, policy); err != nil {
			log.Fatal(err)
		}
		tr := fw.Traffic()
		total := tr.CoupledNetwork + tr.CoupledShm
		fmt.Printf("%-13s coupled %8d B over network, %8d B in-situ (%.1f%%)\n",
			policy.String()+":", tr.CoupledNetwork, tr.CoupledShm,
			100*float64(tr.CoupledShm)/float64(total))
	}
}
