// Heat diffusion with in-situ analysis: a real numerical kernel — a
// distributed Jacobi relaxation with periodic halo exchange — runs as the
// simulation component, concurrently coupled with an analysis application
// that pulls the final temperature field straight out of the solver's
// memory and computes global statistics in situ.
//
// This is the complete pattern the paper targets: the solver's
// intra-application communication (halo exchanges over the application
// communicator) and the inter-application coupling (direct memory-to-memory
// field transfer) both run on the framework, with the data-centric mapping
// keeping the coupling node-local.
//
// Run with: go run ./examples/heatdiffusion
package main

import (
	"fmt"
	"log"
	"math"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/apps"
)

const (
	solverID   = 1
	analysisID = 2
	sweeps     = 8
	side       = 32
)

func main() {
	fw, err := cods.New(cods.Config{
		Nodes:        10,
		CoresPerNode: 4,
		Domain:       []int{side, side},
	})
	if err != nil {
		log.Fatal(err)
	}
	solverDecomp, err := fw.BlockedDecomposition([]int{8, 4}) // 32 tasks
	if err != nil {
		log.Fatal(err)
	}
	analysisDecomp, err := fw.BlockedDecomposition([]int{2, 4}) // 8 tasks
	if err != nil {
		log.Fatal(err)
	}

	// A hot disc in a cold plate.
	initial := func(p cods.Point) float64 {
		dx := float64(p[0]) - side/2
		dy := float64(p[1]) - side/2
		if dx*dx+dy*dy < 25 {
			return 100
		}
		return 0
	}
	if err := fw.RegisterApp(cods.AppSpec{
		ID:     solverID,
		Decomp: solverDecomp,
		Run: apps.NewJacobi(apps.JacobiConfig{
			Var: "temperature", Iterations: sweeps, Init: initial, Mode: apps.Concurrent,
		}),
	}); err != nil {
		log.Fatal(err)
	}

	if err := fw.RegisterApp(cods.AppSpec{
		ID:     analysisID,
		Decomp: analysisDecomp,
		Run: func(ctx *cods.AppContext) error {
			solver := ctx.Producers[solverID]
			moments := apps.NewMoments()
			hist, err := apps.NewHistogram(0, 100, 10)
			if err != nil {
				return err
			}
			for _, region := range ctx.Decomp.Region(ctx.Rank) {
				field, err := ctx.Space.GetConcurrent(solver, "temperature", sweeps, region)
				if err != nil {
					return err
				}
				moments.AddAll(field)
				hist.AddAll(field)
			}
			global, err := apps.ReduceMoments(ctx.Comm, moments)
			if err != nil {
				return err
			}
			ghist, err := apps.ReduceHistogram(ctx.Comm, hist)
			if err != nil {
				return err
			}
			if ctx.Rank == 0 {
				fmt.Printf("after %d sweeps: mean %.4f, max %.4f, stddev %.4f\n",
					sweeps, global.Mean(), global.Max, math.Sqrt(global.Variance()))
				fmt.Print("temperature histogram:")
				for _, b := range ghist.Bins {
					fmt.Printf(" %.0f", b)
				}
				fmt.Println()
			}
			return nil
		},
	}); err != nil {
		log.Fatal(err)
	}

	if _, err := fw.RunWorkflowText("APP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n", cods.DataCentric); err != nil {
		log.Fatal(err)
	}
	tr := fw.Traffic()
	fmt.Printf("halo exchange: %d B over network; coupling: %d B network, %d B in-situ\n",
		tr.IntraNetwork, tr.CoupledNetwork, tr.CoupledShm)
}
