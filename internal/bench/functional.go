package bench

import (
	"fmt"

	"github.com/insitu/cods/internal/apps"
	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/runtime"
)

// The functional path actually executes the workflows — real execution
// clients, real puts/gets, every byte moved and metered — at a reduced
// scale. The tests cross-validate it against the analytic path: the same
// placements must produce the same inter-application network bytes.

// RunConcurrentFunctional executes the scale's concurrent file of one
// pattern under policy, returning the machine whose metrics carry the
// measured traffic.
func RunConcurrentFunctional(sc Scale, pattern string, policy runtime.Policy, iterations int, verify bool) (*cluster.Machine, error) {
	cs, err := sc.scenario("concurrent", pattern)
	if err != nil {
		return nil, err
	}
	return cs.execute(policy, apps.Concurrent, "field", iterations, verify)
}

// RunSequentialFunctional executes the scale's sequential file of one
// pattern under policy.
func RunSequentialFunctional(sc Scale, pattern string, policy runtime.Policy, verify bool) (*cluster.Machine, error) {
	ss, err := sc.scenario("sequential", pattern)
	if err != nil {
		return nil, err
	}
	return ss.execute(policy, apps.Sequential, "state", 1, verify)
}

// execute runs the scenario's applications as its file orders them under
// policy: the producer writes variable v for iterations steps and every
// consumer reads it back, each with its stencil exchange.
func (s *Scenario) execute(policy runtime.Policy, mode apps.Coupling, v string, iterations int, verify bool) (*cluster.Machine, error) {
	srv, err := runtime.NewServer(s.Machine, geometry.BoxFromSize(s.DAG.Domain), seed)
	if err != nil {
		return nil, err
	}
	specs := []runtime.AppSpec{{
		ID: s.Prod.ID, Decomp: s.Prod.Decomp,
		Run: apps.NewProducer(apps.ProducerConfig{Var: v, Iterations: iterations, Halo: s.DAG.Halo, Mode: mode}),
	}}
	for _, cons := range s.Cons {
		specs = append(specs, runtime.AppSpec{
			ID: cons.ID, Decomp: cons.Decomp, ReadsVar: v,
			Run: apps.NewConsumer(apps.ConsumerConfig{
				Var: v, Producer: s.Prod.ID, Iterations: iterations, Halo: s.DAG.Halo, Mode: mode, Verify: verify,
			}),
		})
	}
	for _, spec := range specs {
		if err := srv.RegisterApp(spec); err != nil {
			return nil, err
		}
	}
	if _, err := srv.Run(s.DAG, policy); err != nil {
		return nil, err
	}
	return s.Machine, nil
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
