package bench

import (
	"fmt"
	"time"

	"github.com/insitu/cods/internal/mapping"
)

// MappingCost measures the wall-clock cost of computing the data-centric
// mappings themselves across weak-scaling factors: the server-side graph
// partitioning (performed offline before a bundle launches, Section IV-B)
// and the client-side locality mapping. It answers whether the mapping
// machinery itself scales to the evaluation's 8192-task runs.
func MappingCost(sc Scale, factors []int) (*Table, error) {
	if factors == nil {
		factors = []int{1, 2, 4, 8, 16}
	}
	t := &Table{
		ID:      "mapping-cost",
		Title:   "Cost of computing the data-centric mappings (wall clock, ms)",
		Columns: []string{"factor", "bundle tasks", "server-side", "consumer tasks", "client-side"},
		Notes: []string{
			"server-side: communication graph + multilevel partitioning of the concurrent bundle",
			"client-side: locality aggregation + greedy re-dispatch of the sequential consumers",
		},
	}
	for _, f := range factors {
		scaled, err := sc.WeakScale(f)
		if err != nil {
			return nil, err
		}
		cs, err := scaled.scenario("concurrent", Patterns()[0])
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := mapping.ServerDataCentric(cs.Machine, cs.Bundle(), nil, ElemSize, seed); err != nil {
			return nil, err
		}
		serverMs := float64(time.Since(start).Microseconds()) / 1e3

		ss, err := scaled.scenario("sequential", Patterns()[0])
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if _, err := mapping.ClientDataCentricAnalytic(ss.Machine, ss.ProdPl, ss.Prod, ss.clientConsumers(), nil); err != nil {
			return nil, err
		}
		clientMs := float64(time.Since(start).Microseconds()) / 1e3

		t.AddRow(
			fmt.Sprintf("x%d", f),
			fmt.Sprint(sum(cs.tasks())),
			fmt.Sprintf("%.1f", serverMs),
			fmt.Sprint(sum(ss.tasks()[1:])),
			fmt.Sprintf("%.1f", clientMs),
		)
	}
	return t, nil
}
