package bench

import (
	"fmt"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

// AblationLinearization compares the Hilbert space-filling curve against a
// naive row-major linearization: the number of DHT index spans a box query
// decomposes into (fewer spans = fewer DHT cores touched per query).
func AblationLinearization() (*Table, error) {
	t := &Table{
		ID:      "ablation-linearization",
		Title:   "DHT linearization: index spans per box query",
		Columns: []string{"query box", "hilbert", "morton (z-order)", "row-major"},
		Notes: []string{
			"the Hilbert curve keeps geometrically close cells close in the index space, so queries touch far fewer spans (and DHT intervals)",
		},
	}
	// The same registry the -curve flag selects from, over the 64^3 domain
	// the queries below cover. CurveNames order matches the columns.
	curves := make([]sfc.Linearizer, 0, len(sfc.CurveNames()))
	for _, name := range sfc.CurveNames() {
		l, err := sfc.ForDomain(name, []int{64, 64, 64})
		if err != nil {
			return nil, err
		}
		curves = append(curves, l)
	}
	queries := []geometry.BBox{
		geometry.NewBBox(geometry.Point{0, 0, 0}, geometry.Point{16, 16, 16}),
		geometry.NewBBox(geometry.Point{8, 8, 8}, geometry.Point{24, 24, 24}),
		geometry.NewBBox(geometry.Point{4, 4, 4}, geometry.Point{36, 36, 36}),
		geometry.NewBBox(geometry.Point{16, 0, 16}, geometry.Point{48, 64, 48}),
		geometry.NewBBox(geometry.Point{0, 0, 0}, geometry.Point{64, 64, 8}),
	}
	for _, q := range queries {
		row := []string{q.String()}
		for _, l := range curves {
			row = append(row, fmt.Sprint(len(l.Spans(q))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationScheduleCache measures what communication-schedule caching saves
// in an iterative coupling: lookup-service control messages per get when
// the consumer reuses its schedule versus recomputing it each iteration.
func AblationScheduleCache(iterations int) (*Table, error) {
	t := &Table{
		ID:      "ablation-schedule-cache",
		Title:   fmt.Sprintf("Communication-schedule caching over %d iterations", iterations),
		Columns: []string{"cache", "schedule computations", "control messages", "control bytes"},
		Notes: []string{
			"coupling patterns repeat across iterations, so the schedule (and its DHT queries) can be computed once and reused (paper Section IV-A)",
		},
	}
	for _, cached := range []bool{true, false} {
		m, err := cluster.NewMachine(4, 4)
		if err != nil {
			return nil, err
		}
		f := transport.NewFabric(m)
		domain := geometry.BoxFromSize([]int{16, 16, 16})
		sp, err := cods.NewSpace(f, domain)
		if err != nil {
			return nil, err
		}
		// One producer block per core of node 0..1; consumer on node 3.
		producer := sp.HandleAt(0, 1, "put")
		for v := 0; v < iterations; v++ {
			if err := producer.PutSequential("u", v, domain, make([]float64, domain.Volume())); err != nil {
				return nil, err
			}
		}
		m.Metrics().Reset()
		consumer := sp.HandleAt(12, 2, "get")
		consumer.CacheEnabled = cached
		for v := 0; v < iterations; v++ {
			if _, err := consumer.GetSequential("u", v, domain); err != nil {
				return nil, err
			}
		}
		ctlBytes := m.Metrics().Bytes(cluster.Control, cluster.Network) +
			m.Metrics().Bytes(cluster.Control, cluster.SharedMemory)
		// Every flow in the get phase beyond the payload pulls (one per
		// iteration: the whole domain is one stored block) is lookup
		// control traffic.
		ctlMsgs := len(m.Metrics().Flows("get")) - iterations
		name := "on"
		if !cached {
			name = "off"
		}
		t.AddRow(name, fmt.Sprint(consumer.CacheMisses), fmt.Sprint(ctlMsgs), fmt.Sprint(ctlBytes))
	}
	return t, nil
}

// AblationPartitioner compares mapping qualities on the concurrent
// scenario: the multilevel partitioner against its single-level variant,
// the round-robin deal and the launcher placement.
func AblationPartitioner(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "ablation-partitioner",
		Title:   "Mapping strategy vs. network coupled bytes (GB), blocked/blocked",
		Columns: []string{"strategy", "network", "share of total"},
		Notes: []string{
			"multilevel partitioning is what makes the server-side mapping effective; greedy single-level and placement-only baselines leave much more coupling on the network",
		},
	}
	cs, err := sc.scenario("concurrent", Patterns()[0])
	if err != nil {
		return nil, err
	}
	total := int64(1)
	for _, s := range cs.DAG.Domain {
		total *= int64(s)
	}
	total *= ElemSize
	apps := cs.Bundle().Apps
	strategies := []struct {
		name  string
		place func() (*cluster.Placement, error)
	}{
		{"launcher (consecutive)", func() (*cluster.Placement, error) { return mapping.Consecutive(cs.Machine, apps, nil) }},
		{"round-robin deal", func() (*cluster.Placement, error) { return mapping.RoundRobin(cs.Machine, apps, nil) }},
		{"single-level greedy", func() (*cluster.Placement, error) {
			return mapping.ServerDataCentricOpts(cs.Machine, cs.Bundle(), nil, ElemSize, graph.Options{Seed: seed, SingleLevel: true})
		}},
		{"multilevel (data-centric)", func() (*cluster.Placement, error) {
			return mapping.ServerDataCentric(cs.Machine, cs.Bundle(), nil, ElemSize, seed)
		}},
	}
	for _, st := range strategies {
		pl, err := st.place()
		if err != nil {
			return nil, err
		}
		tr, err := mapping.CoupledTraffic(cs.Machine, pl, pl, cs.Prod, cs.Cons[0], ElemSize)
		if err != nil {
			return nil, err
		}
		t.AddRow(st.name, gb(tr.Network), pct(tr.Network, total))
	}
	return t, nil
}

// Ablations runs every ablation study.
func Ablations(sc Scale) ([]*Table, error) {
	studies := []func() (*Table, error){
		AblationLinearization,
		func() (*Table, error) { return AblationScheduleCache(8) },
		func() (*Table, error) { return AblationPartitioner(sc) },
	}
	out := make([]*Table, len(studies))
	for i, study := range studies {
		tbl, err := study()
		if err != nil {
			return nil, err
		}
		out[i] = tbl
	}
	return out, nil
}
