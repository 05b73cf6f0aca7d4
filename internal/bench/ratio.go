package bench

import "fmt"

// RatioSweep quantifies the sensitivity the paper states at the end of
// Section V-B: "the effectiveness of the data-centric task mapping also
// depends on the ratio of inter-application data transfer size to
// intra-application data exchange size". The sweep grows the stencil ghost
// width — shifting traffic from coupling-dominated to exchange-dominated —
// and reports the total network bytes under both mappings and the
// resulting advantage.
func RatioSweep(sc Scale, halos []int) (*Table, error) {
	if halos == nil {
		halos = []int{1, 2, 4, 8, 16, 32}
	}
	t := &Table{
		ID:      "ratio",
		Title:   "Coupling/exchange ratio sweep (concurrent, blocked/blocked)",
		Columns: []string{"halo", "inter/intra ratio", "baseline total (GB)", "data-centric total (GB)", "advantage"},
		Notes: []string{
			"as intra-application exchange grows relative to coupling, the data-centric advantage shrinks — the paper's stated applicability condition",
		},
	}
	cs, err := sc.scenario("concurrent", Patterns()[0])
	if err != nil {
		return nil, err
	}
	interRR, interDC, err := both(cs.CoupledNetwork)
	if err != nil {
		return nil, err
	}
	for _, halo := range halos {
		intraRR, intraDC, err := cs.stencil(halo)
		if err != nil {
			return nil, err
		}
		intra := sum(intraRR)
		totalRR, totalDC := interRR+intra, interDC+sum(intraDC)
		ratio := "inf"
		if intra > 0 {
			ratio = fmt.Sprintf("%.2f", float64(interRR)/float64(intra))
		}
		adv := "n/a"
		if totalDC > 0 {
			adv = fmt.Sprintf("%.2fx", float64(totalRR)/float64(totalDC))
		}
		t.AddRow(fmt.Sprint(halo), ratio, gb(totalRR), gb(totalDC), adv)
	}
	return t, nil
}
