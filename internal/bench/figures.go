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
	return coupledFig(sc, "concurrent", &Table{
		ID:    "fig8",
		Title: "Concurrent coupling: network-transferred coupled data (GB)",
		Notes: []string{"expected shape: ~80% fewer network bytes for matching distributions; little gain for mismatched pairs"},
	}, func(s *Scenario) string {
		n := s.tasks()
		return fmt.Sprintf("CAP1 %d tasks, CAP2 %d tasks, domain %v, %d-core nodes", n[0], n[1], s.DAG.Domain, s.DAG.CoresPerNode)
	})
}

// Fig9 reproduces Figure 9: network-transferred coupled data in the
// sequential coupling scenario (SAP1 -> SAP2 + SAP3) per pattern pair.
func Fig9(sc Scale) (*Table, error) {
	return coupledFig(sc, "sequential", &Table{
		ID:    "fig9",
		Title: "Sequential coupling: network-transferred coupled data (GB)",
		Notes: []string{"expected shape: ~90% fewer network bytes for matching distributions"},
	}, func(s *Scenario) string {
		n := s.tasks()
		return fmt.Sprintf("SAP1 %d tasks -> SAP2 %d + SAP3 %d tasks, domain %v", n[0], n[1], n[2], s.DAG.Domain)
	})
}

// coupledFig fills t with one row per pattern: the coupled network bytes
// of the coupling's scenario under both mappings and the data-centric
// reduction. Its first note is setup's description of the first scenario.
func coupledFig(sc Scale, coupling string, t *Table, setup func(*Scenario) string) (*Table, error) {
	t.Columns = []string{"pattern", "round-robin", "data-centric", "reduction"}
	for i, pat := range Patterns() {
		s, err := sc.scenario(coupling, pat)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			t.Notes = append([]string{setup(s)}, t.Notes...)
		}
		rr, dc, err := both(s.CoupledNetwork)
		if err != nil {
			return nil, err
		}
		t.AddRow(pat, gb(rr), gb(dc), pct(rr-dc, rr))
	}
	return t, nil
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
		cs, err := sc.scenario("concurrent", pat)
		if err != nil {
			return nil, err
		}
		fan, err := decomp.FanOut(cs.Cons[0].Decomp, cs.Prod.Decomp)
		if err != nil {
			return nil, err
		}
		avg := float64(sum(fan)) / float64(len(fan))
		t.AddRow(pat, fmt.Sprintf("%.1f", avg), fmt.Sprint(slices.Max(fan)), fmt.Sprint(cs.Prod.Decomp.NumTasks()))
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
	times, _, _, err := sc.retrieveTimes(runtime.RoundRobin, runtime.DataCentric)
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
// SAP3, and the blocked/blocked scenarios it timed.
func (sc Scale) retrieveTimes(policies ...runtime.Policy) (times [][]float64, cs, ss *Scenario, err error) {
	if cs, err = sc.scenario("concurrent", Patterns()[0]); err != nil {
		return nil, nil, nil, err
	}
	if ss, err = sc.scenario("sequential", Patterns()[0]); err != nil {
		return nil, nil, nil, err
	}
	for _, p := range policies {
		capT, err := cs.RetrieveTimes(p)
		if err != nil {
			return nil, nil, nil, err
		}
		sapT, err := ss.RetrieveTimes(p)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, append(capT, sapT...))
	}
	return times, cs, ss, nil
}

// Fig12 reproduces Figure 12: intra-application (stencil) data exchanged
// over the network in the concurrent scenario, per application, for both
// mappings.
func Fig12(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Concurrent scenario: intra-app network exchange (GB/iteration)",
		Columns: []string{"application", "round-robin", "data-centric", "change"},
	}
	cs, err := sc.scenario("concurrent", Patterns()[0])
	if err != nil {
		return nil, err
	}
	t.Notes = []string{
		fmt.Sprintf("3-D near-neighbour halo exchange, ghost width %d", cs.DAG.Halo),
		"expected shape: data-centric roughly doubles the smaller application's (CAP2) intra-app network bytes; CAP1 barely changes",
	}
	return t.intraRows(cs, "CAP1", "CAP2")
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
	ss, err := sc.scenario("sequential", Patterns()[0])
	if err != nil {
		return nil, err
	}
	return t.intraRows(ss, "SAP1", "SAP2", "SAP3")
}

// intraRows adds one row per application of s, named by names: its stencil
// network bytes at the file's halo under both mappings, and their ratio.
func (t *Table) intraRows(s *Scenario, names ...string) (*Table, error) {
	rr, dc, err := s.stencil(s.DAG.Halo)
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
	cs, err := sc.scenario("concurrent", Patterns()[0])
	if err != nil {
		return nil, err
	}
	return t.breakdownRows(cs)
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
	ss, err := sc.scenario("sequential", Patterns()[0])
	if err != nil {
		return nil, err
	}
	return t.breakdownRows(ss)
}

// breakdownRows adds one row per mapping of s: its coupled and its
// intra-application network bytes, at the file's halo, and their total.
func (t *Table) breakdownRows(s *Scenario) (*Table, error) {
	for _, p := range []runtime.Policy{runtime.RoundRobin, runtime.DataCentric} {
		inter, err := s.CoupledNetwork(p)
		if err != nil {
			return nil, err
		}
		intra, err := s.StencilNetwork(p, s.DAG.Halo)
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
		dc, cs, ss, err := scaled.retrieveTimes(runtime.DataCentric)
		if err != nil {
			return nil, err
		}
		n := cs.tasks()
		t.AddRow(
			fmt.Sprintf("x%d", f),
			fmt.Sprintf("%d/%d", n[0], n[1]),
			ms(dc[0][0]),
			fmt.Sprint(ss.tasks()[0]),
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
