package bench

import (
	"fmt"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
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
		rr, dc, err := cs.Placements()
		if err != nil {
			return nil, err
		}
		trRR, err := mapping.CoupledTraffic(cs.Machine, rr, rr, cs.Prod, cs.Cons, ElemSize)
		if err != nil {
			return nil, err
		}
		trDC, err := mapping.CoupledTraffic(cs.Machine, dc, dc, cs.Prod, cs.Cons, ElemSize)
		if err != nil {
			return nil, err
		}
		t.AddRow(pat.Name, gb(trRR.Network), gb(trDC.Network), pct(trRR.Network-trDC.Network, trRR.Network))
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
		rr, dc, err := ss.ConsumerPlacements()
		if err != nil {
			return nil, err
		}
		var netRR, netDC int64
		for _, cons := range []graph.App{ss.Cons2, ss.Cons3} {
			trRR, err := mapping.CoupledTraffic(ss.Machine, ss.ProdPl, rr, ss.Prod, cons, ElemSize)
			if err != nil {
				return nil, err
			}
			trDC, err := mapping.CoupledTraffic(ss.Machine, ss.ProdPl, dc, ss.Prod, cons, ElemSize)
			if err != nil {
				return nil, err
			}
			netRR += trRR.Network
			netDC += trDC.Network
		}
		t.AddRow(pat.Name, gb(netRR), gb(netDC), pct(netRR-netDC, netRR))
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
		cs, err := NewConcurrent(sc, pat)
		if err != nil {
			return nil, err
		}
		fan, err := decomp.FanOut(cs.Cons.Decomp, cs.Prod.Decomp)
		if err != nil {
			return nil, err
		}
		sum, max := 0, 0
		for _, f := range fan {
			sum += f
			if f > max {
				max = f
			}
		}
		avg := float64(sum) / float64(len(fan))
		t.AddRow(pat.Name, fmt.Sprintf("%.1f", avg), fmt.Sprint(max), fmt.Sprint(cs.Prod.Decomp.NumTasks()))
	}
	return t, nil
}

// retrieveTimes simulates the coupled-data retrieval of one or more
// consumer applications whose pulls start simultaneously, returning the
// completion time per application id.
func retrieveTimes(m *cluster.Machine, prodPl *cluster.Placement, prod graph.App,
	consPl *cluster.Placement, consumers []graph.App) (map[int]float64, error) {
	var flows []cluster.Flow
	owner := make([]int, 0) // flow index -> app id
	for _, cons := range consumers {
		fl, err := mapping.CoupledFlows(prodPl, consPl, prod, cons, ElemSize,
			fmt.Sprintf("couple:%d", cons.ID))
		if err != nil {
			return nil, err
		}
		flows = append(flows, fl...)
		for range fl {
			owner = append(owner, cons.ID)
		}
	}
	completion, _ := torusFor(m.NumNodes()).simulate(flows)
	times := make(map[int]float64, len(consumers))
	for i, c := range completion {
		id := owner[i]
		if c > times[id] {
			times[id] = c
		}
	}
	return times, nil
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
	pat := Patterns()[0]

	cs, err := NewConcurrent(sc, pat)
	if err != nil {
		return nil, err
	}
	csRR, csDC, err := cs.Placements()
	if err != nil {
		return nil, err
	}
	rrT, err := retrieveTimes(cs.Machine, csRR, cs.Prod, csRR, []graph.App{cs.Cons})
	if err != nil {
		return nil, err
	}
	dcT, err := retrieveTimes(cs.Machine, csDC, cs.Prod, csDC, []graph.App{cs.Cons})
	if err != nil {
		return nil, err
	}
	addRow := func(name string, rr, dc float64) {
		speed := "n/a"
		if dc > 0 {
			speed = fmt.Sprintf("%.1fx", rr/dc)
		}
		t.AddRow(name, ms(rr), ms(dc), speed)
	}
	addRow("CAP2", rrT[cs.Cons.ID], dcT[cs.Cons.ID])

	ss, err := NewSequential(sc, pat)
	if err != nil {
		return nil, err
	}
	ssRR, ssDC, err := ss.ConsumerPlacements()
	if err != nil {
		return nil, err
	}
	seqCons := []graph.App{ss.Cons2, ss.Cons3}
	rrS, err := retrieveTimes(ss.Machine, ss.ProdPl, ss.Prod, ssRR, seqCons)
	if err != nil {
		return nil, err
	}
	dcS, err := retrieveTimes(ss.Machine, ss.ProdPl, ss.Prod, ssDC, seqCons)
	if err != nil {
		return nil, err
	}
	addRow("SAP2", rrS[ss.Cons2.ID], dcS[ss.Cons2.ID])
	addRow("SAP3", rrS[ss.Cons3.ID], dcS[ss.Cons3.ID])
	return t, nil
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
	pat := Patterns()[0]
	cs, err := NewConcurrent(sc, pat)
	if err != nil {
		return nil, err
	}
	rr, dc, err := cs.Placements()
	if err != nil {
		return nil, err
	}
	for _, app := range []struct {
		name string
		a    graph.App
	}{{"CAP1", cs.Prod}, {"CAP2", cs.Cons}} {
		trRR, err := mapping.StencilTraffic(cs.Machine, rr, app.a, sc.Halo, ElemSize)
		if err != nil {
			return nil, err
		}
		trDC, err := mapping.StencilTraffic(cs.Machine, dc, app.a, sc.Halo, ElemSize)
		if err != nil {
			return nil, err
		}
		change := "n/a"
		if trRR.Network > 0 {
			change = fmt.Sprintf("%.2fx", float64(trDC.Network)/float64(trRR.Network))
		}
		t.AddRow(app.name, gb(trRR.Network), gb(trDC.Network), change)
	}
	return t, nil
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
	pat := Patterns()[0]
	ss, err := NewSequential(sc, pat)
	if err != nil {
		return nil, err
	}
	rr, dc, err := ss.ConsumerPlacements()
	if err != nil {
		return nil, err
	}
	type row struct {
		name string
		a    graph.App
		rrPl *cluster.Placement
		dcPl *cluster.Placement
	}
	rows := []row{
		{"SAP1", ss.Prod, ss.ProdPl, ss.ProdPl},
		{"SAP2", ss.Cons2, rr, dc},
		{"SAP3", ss.Cons3, rr, dc},
	}
	for _, r := range rows {
		trRR, err := mapping.StencilTraffic(ss.Machine, r.rrPl, r.a, sc.Halo, ElemSize)
		if err != nil {
			return nil, err
		}
		trDC, err := mapping.StencilTraffic(ss.Machine, r.dcPl, r.a, sc.Halo, ElemSize)
		if err != nil {
			return nil, err
		}
		change := "n/a"
		if trRR.Network > 0 {
			change = fmt.Sprintf("%.2fx", float64(trDC.Network)/float64(trRR.Network))
		}
		t.AddRow(r.name, gb(trRR.Network), gb(trDC.Network), change)
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
	pat := Patterns()[0]
	cs, err := NewConcurrent(sc, pat)
	if err != nil {
		return nil, err
	}
	rr, dc, err := cs.Placements()
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name string
		pl   *cluster.Placement
	}{{"round-robin", rr}, {"data-centric", dc}} {
		inter, err := mapping.CoupledTraffic(cs.Machine, m.pl, m.pl, cs.Prod, cs.Cons, ElemSize)
		if err != nil {
			return nil, err
		}
		var intra int64
		for _, a := range []graph.App{cs.Prod, cs.Cons} {
			st, err := mapping.StencilTraffic(cs.Machine, m.pl, a, sc.Halo, ElemSize)
			if err != nil {
				return nil, err
			}
			intra += st.Network
		}
		t.AddRow(m.name, gb(inter.Network), gb(intra), gb(inter.Network+intra))
	}
	return t, nil
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
	pat := Patterns()[0]
	ss, err := NewSequential(sc, pat)
	if err != nil {
		return nil, err
	}
	rr, dc, err := ss.ConsumerPlacements()
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name string
		pl   *cluster.Placement
	}{{"round-robin", rr}, {"data-centric", dc}} {
		var inter, intra int64
		for _, cons := range []graph.App{ss.Cons2, ss.Cons3} {
			tr, err := mapping.CoupledTraffic(ss.Machine, ss.ProdPl, m.pl, ss.Prod, cons, ElemSize)
			if err != nil {
				return nil, err
			}
			inter += tr.Network
			st, err := mapping.StencilTraffic(ss.Machine, m.pl, cons, sc.Halo, ElemSize)
			if err != nil {
				return nil, err
			}
			intra += st.Network
		}
		st, err := mapping.StencilTraffic(ss.Machine, ss.ProdPl, ss.Prod, sc.Halo, ElemSize)
		if err != nil {
			return nil, err
		}
		intra += st.Network
		t.AddRow(m.name, gb(inter), gb(intra), gb(inter+intra))
	}
	return t, nil
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
	pat := Patterns()[0]
	for _, f := range factors {
		scaled, err := sc.WeakScale(f)
		if err != nil {
			return nil, err
		}
		cs, err := NewConcurrent(scaled, pat)
		if err != nil {
			return nil, err
		}
		_, csDC, err := cs.Placements()
		if err != nil {
			return nil, err
		}
		capT, err := retrieveTimes(cs.Machine, csDC, cs.Prod, csDC, []graph.App{cs.Cons})
		if err != nil {
			return nil, err
		}
		ss, err := NewSequential(scaled, pat)
		if err != nil {
			return nil, err
		}
		_, ssDC, err := ss.ConsumerPlacements()
		if err != nil {
			return nil, err
		}
		seqT, err := retrieveTimes(ss.Machine, ss.ProdPl, ss.Prod, ssDC, []graph.App{ss.Cons2, ss.Cons3})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("x%d", f),
			fmt.Sprintf("%d/%d", tasks(scaled.CAP1Grid), tasks(scaled.CAP2Grid)),
			ms(capT[cs.Cons.ID]),
			fmt.Sprint(tasks(scaled.SAP1Grid)),
			ms(seqT[ss.Cons2.ID]),
			ms(seqT[ss.Cons3.ID]),
		)
	}
	return t, nil
}

// All runs every figure at a scale (Fig16 with the default factors).
func All(sc Scale) ([]*Table, error) {
	var out []*Table
	type fig struct {
		name string
		fn   func(Scale) (*Table, error)
	}
	figs := []fig{
		{"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10}, {"fig11", Fig11},
		{"fig12", Fig12}, {"fig13", Fig13}, {"fig14", Fig14}, {"fig15", Fig15},
	}
	for _, f := range figs {
		tbl, err := f.fn(sc)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f.name, err)
		}
		out = append(out, tbl)
	}
	tbl, err := Fig16(sc, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: fig16: %w", err)
	}
	out = append(out, tbl)
	return out, nil
}
