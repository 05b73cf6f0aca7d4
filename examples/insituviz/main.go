// In-situ analysis and visualization pipeline (paper Section VI relates
// the framework to in-situ visualization): a simulation is concurrently
// coupled with a feature-detection stage, which is sequentially coupled
// with a rendering stage. The pipeline exercises both coupling styles in
// one workflow:
//
//	simulation ==bundle== detector  --DAG edge-->  renderer
//
// The detector pulls the raw field directly from the simulation every
// iteration (concurrent coupling), thresholds it and stores the reduced
// feature field in the space (sequential coupling); the renderer launches
// afterwards, is mapped client-side next to the stored features, and
// produces a (text) image.
//
// Run with: go run ./examples/insituviz
package main

import (
	"fmt"
	"log"
	"math"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/apps"
)

const (
	simulationID = 1
	detectorID   = 2
	rendererID   = 3
	iterations   = 2
	side         = 32
)

const pipelineDAG = `
APP_ID 1
APP_ID 2
APP_ID 3
PARENT_APPID 2 CHILD_APPID 3
BUNDLE 1 2
BUNDLE 3
`

func main() {
	fw, err := cods.New(cods.Config{
		Nodes:        10,
		CoresPerNode: 4,
		Domain:       []int{side, side, side},
	})
	if err != nil {
		log.Fatal(err)
	}
	simDecomp, err := fw.BlockedDecomposition([]int{4, 2, 2}) // 16 tasks
	if err != nil {
		log.Fatal(err)
	}
	detDecomp, err := fw.BlockedDecomposition([]int{2, 2, 2}) // 8 tasks
	if err != nil {
		log.Fatal(err)
	}
	renDecomp, err := fw.BlockedDecomposition([]int{4, 4, 1}) // 16 tasks
	if err != nil {
		log.Fatal(err)
	}

	// Simulation: a travelling Gaussian blob, published per iteration.
	err = fw.RegisterApp(cods.AppSpec{
		ID:     simulationID,
		Decomp: simDecomp,
		Run: func(ctx *cods.AppContext) error {
			for version := 0; version < iterations; version++ {
				center := float64(8 + 12*version)
				for _, block := range ctx.Decomp.Region(ctx.Rank) {
					field := make([]float64, block.Volume())
					i := 0
					block.Each(func(p cods.Point) {
						dx := float64(p[0]) - center
						dy := float64(p[1]) - float64(side)/2
						dz := float64(p[2]) - float64(side)/2
						field[i] = math.Exp(-(dx*dx + dy*dy + dz*dz) / 64)
						i++
					})
					if err := ctx.Space.PutConcurrent("density", version, block, field); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Detector: computes in-situ statistics of each snapshot (global
	// moments and the isosurface cell count at density 0.5), then
	// thresholds the final snapshot into a feature mask for the renderer.
	err = fw.RegisterApp(cods.AppSpec{
		ID:     detectorID,
		Decomp: detDecomp,
		Run: func(ctx *cods.AppContext) error {
			producer := ctx.Producers[simulationID]
			for version := 0; version < iterations; version++ {
				moments := apps.NewMoments()
				var isoCells int64
				for _, region := range ctx.Decomp.Region(ctx.Rank) {
					field, err := ctx.Space.GetConcurrent(producer, "density", version, region)
					if err != nil {
						return err
					}
					moments.AddAll(field)
					n, err := apps.IsoCells(region, field, 0.5)
					if err != nil {
						return err
					}
					isoCells += n
					mask := make([]float64, len(field))
					for i, v := range field {
						if v > 0.5 {
							mask[i] = 1
						}
					}
					if version == iterations-1 {
						if err := ctx.Space.PutSequential("features", 0, region, mask); err != nil {
							return err
						}
					}
				}
				global, err := apps.ReduceMoments(ctx.Comm, moments)
				if err != nil {
					return err
				}
				totalIso, err := apps.ReduceCount(ctx.Comm, isoCells)
				if err != nil {
					return err
				}
				if ctx.Rank == 0 {
					fmt.Printf("detector: step %d density mean %.5f max %.3f, isosurface cells %d\n",
						version, global.Mean(), global.Max, totalIso)
				}
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Renderer: launched after the detector completes, mapped next to the
	// stored feature mask; projects the mask along z and gathers an ASCII
	// image at rank 0.
	err = fw.RegisterApp(cods.AppSpec{
		ID:       rendererID,
		Decomp:   renDecomp,
		ReadsVar: "features",
		Run: func(ctx *cods.AppContext) error {
			ctx.Space.SetPhase(fmt.Sprintf("couple:%d:0", rendererID))
			var local float64
			for _, region := range ctx.Decomp.Region(ctx.Rank) {
				mask, err := ctx.Space.GetSequential("features", 0, region)
				if err != nil {
					return err
				}
				for _, v := range mask {
					local += v
				}
			}
			totals, err := ctx.Comm.Allreduce(0, []float64{local})
			if err != nil {
				return err
			}
			if ctx.Rank == 0 {
				fmt.Printf("renderer: feature volume = %.0f cells\n", totals[0])
				if totals[0] == 0 {
					return fmt.Errorf("no features detected — pipeline broken")
				}
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	if _, err := fw.RunWorkflowText(pipelineDAG, cods.DataCentric); err != nil {
		log.Fatal(err)
	}
	tr := fw.Traffic()
	fmt.Printf("pipeline traffic: %d B coupled over network, %d B coupled in-situ\n",
		tr.CoupledNetwork, tr.CoupledShm)
}
