package bench

import (
	"fmt"

	"github.com/insitu/cods/internal/apps"
	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/runtime"
	"github.com/insitu/cods/internal/workflow"
)

// The functional path actually executes the workflows — real execution
// clients, real puts/gets, every byte moved and metered — at a reduced
// scale. The tests cross-validate it against the analytic path: the same
// placements must produce the same inter-application network bytes.

// RunConcurrentFunctional executes the CAP1/CAP2 workflow with the
// pattern's decompositions at the given scale and policy, returning the
// machine whose metrics carry the measured traffic.
func RunConcurrentFunctional(sc Scale, pat Pattern, policy runtime.Policy, iterations int, verify bool) (*cluster.Machine, error) {
	cs, err := NewConcurrent(sc, pat)
	if err != nil {
		return nil, err
	}
	srv, err := runtime.NewServer(cs.Machine, geometry.BoxFromSize(sc.Domain), sc.Seed)
	if err != nil {
		return nil, err
	}
	if err := srv.RegisterApp(runtime.AppSpec{
		ID: 1, Decomp: cs.Prod.Decomp,
		Run: apps.NewProducer(apps.ProducerConfig{
			Var: "field", Iterations: iterations, Halo: sc.Halo, Mode: apps.Concurrent,
		}),
	}); err != nil {
		return nil, err
	}
	if err := srv.RegisterApp(runtime.AppSpec{
		ID: 2, Decomp: cs.Cons.Decomp,
		Run: apps.NewConsumer(apps.ConsumerConfig{
			Var: "field", Producer: 1, Iterations: iterations, Halo: sc.Halo,
			Mode: apps.Concurrent, Verify: verify,
		}),
	}); err != nil {
		return nil, err
	}
	d, err := workflow.New([]int{1, 2}, nil, [][]int{{1, 2}})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Run(d, policy); err != nil {
		return nil, err
	}
	return cs.Machine, nil
}

// RunSequentialFunctional executes the SAP1 -> SAP2 + SAP3 workflow with
// the pattern's decompositions at the given scale and policy.
func RunSequentialFunctional(sc Scale, pat Pattern, policy runtime.Policy, verify bool) (*cluster.Machine, error) {
	ss, err := NewSequential(sc, pat)
	if err != nil {
		return nil, err
	}
	srv, err := runtime.NewServer(ss.Machine, geometry.BoxFromSize(sc.Domain), sc.Seed)
	if err != nil {
		return nil, err
	}
	if err := srv.RegisterApp(runtime.AppSpec{
		ID: 1, Decomp: ss.Prod.Decomp,
		Run: apps.NewProducer(apps.ProducerConfig{
			Var: "state", Iterations: 1, Halo: sc.Halo, Mode: apps.Sequential,
		}),
	}); err != nil {
		return nil, err
	}
	consumer := func(dc *decomp.Decomposition) runtime.AppSpec {
		return runtime.AppSpec{
			Decomp: dc,
			Run: apps.NewConsumer(apps.ConsumerConfig{
				Var: "state", Iterations: 1, Halo: sc.Halo, Mode: apps.Sequential, Verify: verify,
			}),
			ReadsVar: "state",
		}
	}
	c2 := consumer(ss.Cons2.Decomp)
	c2.ID = 2
	if err := srv.RegisterApp(c2); err != nil {
		return nil, err
	}
	c3 := consumer(ss.Cons3.Decomp)
	c3.ID = 3
	if err := srv.RegisterApp(c3); err != nil {
		return nil, err
	}
	d, err := workflow.New([]int{1, 2, 3}, [][2]int{{1, 2}, {1, 3}}, nil)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Run(d, policy); err != nil {
		return nil, err
	}
	return ss.Machine, nil
}

// FunctionalComparison runs both policies functionally at a scale and
// tabulates measured network bytes — the executed counterpart of Figures
// 8/9 used to validate the analytic harness.
func FunctionalComparison(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "functional",
		Title:   fmt.Sprintf("Executed workflows (%s scale, blocked/blocked): measured network bytes (MB)", sc.Name),
		Columns: []string{"scenario", "class", "round-robin", "data-centric"},
		Notes: []string{
			"every byte below was actually moved by the execution clients and metered by HybridDART",
		},
	}
	mb := func(b int64) string { return fmt.Sprintf("%.3f", float64(b)/1e6) }
	for _, scenario := range []string{"concurrent", "sequential"} {
		run := func(policy runtime.Policy) (*cluster.Machine, error) {
			if scenario == "concurrent" {
				return RunConcurrentFunctional(sc, Patterns()[0], policy, 1, false)
			}
			return RunSequentialFunctional(sc, Patterns()[0], policy, false)
		}
		rr, err := run(runtime.RoundRobin)
		if err != nil {
			return nil, err
		}
		dc, err := run(runtime.DataCentric)
		if err != nil {
			return nil, err
		}
		t.AddRow(scenario, "inter-app",
			mb(rr.Metrics().Bytes(cluster.InterApp, cluster.Network)),
			mb(dc.Metrics().Bytes(cluster.InterApp, cluster.Network)))
		t.AddRow(scenario, "intra-app",
			mb(rr.Metrics().Bytes(cluster.IntraApp, cluster.Network)),
			mb(dc.Metrics().Bytes(cluster.IntraApp, cluster.Network)))
	}
	return t, nil
}
