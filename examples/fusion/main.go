// Coupled fusion simulation pipeline: the workflow the paper's
// introduction describes from the Fusion Simulation Project — kinetic
// pedestal buildup (XGC0), magnetic equilibrium reconstruction (M3D_OMP),
// linear stability check (Elite), nonlinear ELM crash (M3D_MPP) and
// divertor heat-load evaluation (XGC0 again) — as a five-stage
// sequentially coupled DAG.
//
// Each stage consumes the field its predecessor stored in the space and
// produces its own; every launch uses the client-side data-centric mapping
// to land next to its input. The workflow description is fully
// self-contained: domain and decompositions are declared with the DOMAIN
// and DECOMP directives.
//
// Run with: go run ./examples/fusion
package main

import (
	"fmt"
	"log"
	"strings"

	cods "github.com/insitu/cods"
)

const fusionDAG = `
# Coupled fusion simulation workflow (paper Section I)
DOMAIN 32 32 32
APP_ID 1
APP_ID 2
APP_ID 3
APP_ID 4
APP_ID 5
DECOMP 1 blocked 4 4 2
DECOMP 2 blocked 2 2 2
DECOMP 3 blocked 2 2 1
DECOMP 4 blocked 4 2 2
DECOMP 5 blocked 2 4 2
PARENT_APPID 1 CHILD_APPID 2
PARENT_APPID 2 CHILD_APPID 3
PARENT_APPID 3 CHILD_APPID 4
PARENT_APPID 4 CHILD_APPID 5
`

// stages names the pipeline for the report.
var stages = map[int]struct {
	name     string
	produces string
	consumes string
}{
	1: {"XGC0 (pedestal buildup)", "pedestal", ""},
	2: {"M3D_OMP (equilibrium)", "equilibrium", "pedestal"},
	3: {"Elite (stability check)", "stability", "equilibrium"},
	4: {"M3D_MPP (ELM crash)", "elm", "stability"},
	5: {"XGC0 (divertor heat load)", "heatload", "elm"},
}

func main() {
	fw, err := cods.New(cods.Config{Nodes: 8, CoresPerNode: 4, Domain: []int{32, 32, 32}})
	if err != nil {
		log.Fatal(err)
	}
	dag, err := cods.ParseWorkflow(strings.NewReader(fusionDAG))
	if err != nil {
		log.Fatal(err)
	}
	decomps, err := dag.Decompositions()
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range dag.Apps {
		id := id
		st := stages[id]
		spec := cods.AppSpec{
			ID:     id,
			Decomp: decomps[id],
			Run: func(ctx *cods.AppContext) error {
				// Consume the predecessor's field.
				if st.consumes != "" {
					ctx.Space.SetPhase(fmt.Sprintf("couple:%d:0", id))
					for _, region := range ctx.Decomp.Region(ctx.Rank) {
						if _, err := ctx.Space.GetSequential(st.consumes, 0, region); err != nil {
							return err
						}
					}
				}
				// Produce this stage's field.
				for _, block := range ctx.Decomp.Region(ctx.Rank) {
					data := make([]float64, block.Volume())
					for i := range data {
						data[i] = float64(id)
					}
					if err := ctx.Space.PutSequential(st.produces, 0, block, data); err != nil {
						return err
					}
				}
				return nil
			},
		}
		if st.consumes != "" {
			spec.ReadsVar = st.consumes
		}
		if err := fw.RegisterApp(spec); err != nil {
			log.Fatal(err)
		}
	}
	report, err := fw.RunWorkflow(dag, cods.DataCentric)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fusion pipeline complete: %d stages, %d tasks\n", report.BundlesRun, report.TasksRun)
	for _, id := range dag.Apps {
		fmt.Printf("  stage %d: %s\n", id, stages[id].name)
	}
	tr := fw.Traffic()
	total := tr.CoupledNetwork + tr.CoupledShm
	fmt.Printf("inter-stage data: %d B total, %.1f%% consumed in-situ\n",
		total, 100*float64(tr.CoupledShm)/float64(total))
}
