package bench

import (
	"fmt"
	"slices"

	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/runtime"
)

// Fig8 reproduces Figure 8: the amount of coupled data transferred over
// the network in the concurrent coupling scenario, for the data-centric
// and round-robin task mappings, across decomposition pattern pairs.
func Fig8(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Concurrent coupling: network-transferred coupled data (GB)",
		Columns: []string{"pattern", "round-robin", "data-centric", "reduction"},
		Notes: []string{
			fmt.Sprintf("CAP1 %d tasks, CAP2 %d tasks, domain %v, %d-core nodes",
				tasks(sc.CAP1Grid), tasks(sc.CAP2Grid), sc.Domain, sc.CoresPerNode),
			"expected shape: ~80% fewer network bytes for matching distributions; little gain for mismatched pairs",
		},
	}
	for _, pat := range Patterns() {
		cs, err := NewConcurrent(sc, pat)
		if err != nil {
			return nil, err
		}
		if err := t.addCoupled(pat.Name, &cs.scenario); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig9 reproduces Figure 9: network-transferred coupled data in the
// sequential coupling scenario (SAP1 -> SAP2 + SAP3) per pattern pair.
func Fig9(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Sequential coupling: network-transferred coupled data (GB)",
		Columns: []string{"pattern", "round-robin", "data-centric", "reduction"},
		Notes: []string{
			fmt.Sprintf("SAP1 %d tasks -> SAP2 %d + SAP3 %d tasks, domain %v",
				tasks(sc.SAP1Grid), tasks(sc.SAP2Grid), tasks(sc.SAP3Grid), sc.Domain),
			"expected shape: ~90% fewer network bytes for matching distributions",
		},
	}
	for _, pat := range Patterns() {
		ss, err := NewSequential(sc, pat)
		if err != nil {
			return nil, err
		}
		if err := t.addCoupled(pat.Name, &ss.scenario); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// addCoupled adds a row of s's coupled network bytes under both mappings
// and the data-centric reduction.
func (t *Table) addCoupled(name string, s *scenario) error {
	rr, dc, err := both(s.CoupledNetwork)
	if err != nil {
		return err
	}
	t.AddRow(name, gb(rr), gb(dc), pct(rr-dc, rr))
	return nil
}

// Fig10 reproduces Figure 10's effect quantitatively: the fan-out (number
// of producer tasks a consumer task must pull from) per pattern pair. The
// 1-to-N pattern of mismatched distributions is what defeats locality.
func Fig10(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Producer fan-out per consumer task (concurrent scenario)",
		Columns: []string{"pattern", "avg fan-out", "max fan-out", "producer tasks"},
		Notes: []string{
			"expected shape: small constant fan-out for matching distributions; fan-out approaching the full producer task count for mismatched ones",
		},
	}
	for _, pat := range Patterns() {
		cs, err := NewConcurrent(sc, pat)
		if err != nil {
			return nil, err
		}
		fan, err := decomp.FanOut(cs.Cons.Decomp, cs.Prod.Decomp)
		if err != nil {
			return nil, err
		}
		avg := float64(sum(fan)) / float64(len(fan))
		t.AddRow(pat.Name, fmt.Sprintf("%.1f", avg), fmt.Sprint(slices.Max(fan)), fmt.Sprint(cs.Prod.Decomp.NumTasks()))
	}
	return t, nil
}

// Fig11 reproduces Figure 11: the time to retrieve the coupled data for
// CAP2 (concurrent) and SAP2/SAP3 (sequential), under both mappings, for
// the matching blocked/blocked pattern.
func Fig11(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "Coupled data retrieval time (ms), blocked/blocked",
		Columns: []string{"application", "round-robin", "data-centric", "speedup"},
		Notes: []string{
			"times from the flow-level torus simulator over the mapping's transfer set",
			"expected shape: large reduction under data-centric mapping; SAP2/SAP3 slower than CAP2 despite smaller per-task volumes (twice the concurrent retrieve queries)",
		},
	}
	times, err := retrieveTimes(sc, runtime.RoundRobin, runtime.DataCentric)
	if err != nil {
		return nil, err
	}
	rr, dc := times[0], times[1]
	for i, name := range []string{"CAP2", "SAP2", "SAP3"} {
		speed := "n/a"
		if dc[i] > 0 {
			speed = fmt.Sprintf("%.1fx", rr[i]/dc[i])
		}
		t.AddRow(name, ms(rr[i]), ms(dc[i]), speed)
	}
	return t, nil
}

// retrieveTimes returns, per policy, the retrieval times of CAP2, SAP2 and
// SAP3, blocked/blocked.
func retrieveTimes(sc Scale, policies ...runtime.Policy) ([][]float64, error) {
	cs, err := NewConcurrent(sc, Patterns()[0])
	if err != nil {
		return nil, err
	}
	ss, err := NewSequential(sc, Patterns()[0])
	if err != nil {
		return nil, err
	}
	times := make([][]float64, len(policies))
	for i, p := range policies {
		capT, err := cs.RetrieveTimes(p)
		if err != nil {
			return nil, err
		}
		sapT, err := ss.RetrieveTimes(p)
		if err != nil {
			return nil, err
		}
		times[i] = append(capT, sapT...)
	}
	return times, nil
}

// Fig12 reproduces Figure 12: intra-application (stencil) data exchanged
// over the network in the concurrent scenario, per application, for both
// mappings.
func Fig12(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Concurrent scenario: intra-app network exchange (GB/iteration)",
		Columns: []string{"application", "round-robin", "data-centric", "change"},
		Notes: []string{
			fmt.Sprintf("3-D near-neighbour halo exchange, ghost width %d", sc.Halo),
			"expected shape: data-centric roughly doubles the smaller application's (CAP2) intra-app network bytes; CAP1 barely changes",
		},
	}
	cs, err := NewConcurrent(sc, Patterns()[0])
	if err != nil {
		return nil, err
	}
	return t.intraRows(&cs.scenario, "CAP1", "CAP2")
}

// Fig13 reproduces Figure 13: intra-application network exchange in the
// sequential scenario. SAP1 runs alone before the consumers, so its
// placement (and stencil traffic) is identical under both policies.
func Fig13(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Sequential scenario: intra-app network exchange (GB/iteration)",
		Columns: []string{"application", "round-robin", "data-centric", "change"},
		Notes: []string{
			"expected shape: SAP2 (the small consumer) roughly doubles; SAP1 and SAP3 change little",
		},
	}
	ss, err := NewSequential(sc, Patterns()[0])
	if err != nil {
		return nil, err
	}
	return t.intraRows(&ss.scenario, "SAP1", "SAP2", "SAP3")
}

// intraRows adds one row per application of s, named by names: its stencil
// network bytes at the scale's halo under both mappings, and their ratio.
func (t *Table) intraRows(s *scenario, names ...string) (*Table, error) {
	rr, dc, err := s.stencil(s.Scale.Halo)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		change := "n/a"
		if rr[i] > 0 {
			change = fmt.Sprintf("%.2fx", float64(dc[i])/float64(rr[i]))
		}
		t.AddRow(name, gb(rr[i]), gb(dc[i]), change)
	}
	return t, nil
}

// Fig14 reproduces Figure 14: the total network communication cost of the
// concurrent workflow, broken into inter-application coupling and
// intra-application exchange, per mapping.
func Fig14(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Concurrent scenario: network communication breakdown (GB)",
		Columns: []string{"mapping", "inter-app", "intra-app", "total"},
		Notes: []string{
			"expected shape: coupling dominates under round-robin; data-centric wins overall despite the intra-app increase",
		},
	}
	cs, err := NewConcurrent(sc, Patterns()[0])
	if err != nil {
		return nil, err
	}
	return t.breakdownRows(&cs.scenario)
}

// Fig15 reproduces Figure 15: the same breakdown for the sequential
// workflow.
func Fig15(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig15",
		Title:   "Sequential scenario: network communication breakdown (GB)",
		Columns: []string{"mapping", "inter-app", "intra-app", "total"},
		Notes: []string{
			"expected shape: as Figure 14 — the coupling reduction outweighs the intra-app increase",
		},
	}
	ss, err := NewSequential(sc, Patterns()[0])
	if err != nil {
		return nil, err
	}
	return t.breakdownRows(&ss.scenario)
}

// breakdownRows adds one row per mapping of s: its coupled and its
// intra-application network bytes, at the scale's halo, and their total.
func (t *Table) breakdownRows(s *scenario) (*Table, error) {
	for _, p := range []runtime.Policy{runtime.RoundRobin, runtime.DataCentric} {
		inter, err := s.CoupledNetwork(p)
		if err != nil {
			return nil, err
		}
		intra, err := s.StencilNetwork(p, s.Scale.Halo)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.String(), gb(inter), gb(sum(intra)), gb(inter+sum(intra)))
	}
	return t, nil
}

// sum adds up a column of counts.
func sum[T int | int64](xs []T) T {
	var total T
	for _, x := range xs {
		total += x
	}
	return total
}

// Fig16 reproduces Figure 16: weak scaling of the coupled-data retrieval
// time under the data-centric mapping, growing both scenarios 16-fold.
func Fig16(sc Scale, factors []int) (*Table, error) {
	if factors == nil {
		factors = []int{1, 2, 4, 8, 16}
	}
	t := &Table{
		ID:      "fig16",
		Title:   "Weak scaling: retrieval time (ms) under data-centric mapping",
		Columns: []string{"factor", "CAP1/CAP2 cores", "CAP2", "SAP1 cores", "SAP2", "SAP3"},
		Notes: []string{
			"expected shape: slow growth (link contention) as scale grows 16x; SAP2/SAP3 grow faster than CAP2 (twice the concurrent retrieve queries)",
		},
	}
	for _, f := range factors {
		scaled, err := sc.WeakScale(f)
		if err != nil {
			return nil, err
		}
		dc, err := retrieveTimes(scaled, runtime.DataCentric)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("x%d", f),
			fmt.Sprintf("%d/%d", tasks(scaled.CAP1Grid), tasks(scaled.CAP2Grid)),
			ms(dc[0][0]),
			fmt.Sprint(tasks(scaled.SAP1Grid)),
			ms(dc[0][1]),
			ms(dc[0][2]),
		)
	}
	return t, nil
}

// All runs every figure at a scale (Fig16 with the default factors).
func All(sc Scale) ([]*Table, error) {
	figs := []func(Scale) (*Table, error){
		Fig8, Fig9, Fig10, Fig11, Fig12, Fig13, Fig14, Fig15,
		func(sc Scale) (*Table, error) { return Fig16(sc, nil) },
	}
	out := make([]*Table, len(figs))
	for i, fig := range figs {
		tbl, err := fig(sc)
		if err != nil {
			return nil, fmt.Errorf("bench: fig%d: %w", 8+i, err)
		}
		out[i] = tbl
	}
	return out, nil
}
