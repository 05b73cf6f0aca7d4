package bench

import (
	"embed"
	"fmt"
	"strings"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/runtime"
	"github.com/insitu/cods/internal/workflow"
)

// ElemSize is the coupled-field element size in bytes.
const ElemSize = 8

// seed is the runtime's mapping seed, the one codsrun runs with.
const seed = 1

// The evaluation's scenarios are DAG files, one per scale, coupling and
// pattern: scenarios/<scale>-<coupling>-<producer>-<consumer>.dag. codsrun
// runs the same files.
//
//go:embed scenarios
var scenarioFiles embed.FS

// Scale names one set of scenario files and what a file does not say. The
// paper set has the paper's task counts, machines and halo on a 128^3
// domain, which an executed run can hold; the small set is laptop-sized
// with the same structure.
type Scale struct {
	Name string
	// Domain and Block, when set, replace each file's DOMAIN and
	// block-cyclic BLOCK: the analytic tables run the paper set on the
	// paper's 1024^3 domain with 64^3 blocks.
	Domain, Block []int
	// Factor weak-scales each file (see WeakScale); 0 or 1 leaves it as is.
	Factor int
}

// PaperScale reproduces the evaluation's sizes exactly: 12-core nodes, a
// 1024^3 shared domain, producer tasks owning 128^3 blocks (16 MB),
// CAP1/CAP2 on 512/64 cores, SAP1 -> SAP2 + SAP3 on 512 -> 128+384 cores.
func PaperScale() Scale {
	return Scale{Name: "paper", Domain: []int{1024, 1024, 1024}, Block: []int{64, 64, 64}}
}

// SmallScale is a laptop-sized configuration with the same structure
// (used by tests, examples and the functional cross-validation path).
func SmallScale() Scale { return Scale{Name: "small"} }

// WeakScale multiplies the task counts (and the domain, keeping per-task
// volume constant) by factor, which must be a power of two. Dimensions are
// doubled round-robin, mirroring how the paper grows 512/64 to 8192/1024,
// and the machine grows to hold the largest stage.
func (sc Scale) WeakScale(factor int) (Scale, error) {
	if factor < 1 || factor&(factor-1) != 0 {
		return Scale{}, fmt.Errorf("bench: weak-scaling factor %d is not a power of two", factor)
	}
	sc.Factor = factor
	return sc, nil
}

// dag parses the scale's file of one coupling ("concurrent" or
// "sequential") and pattern, and applies the scale's domain, block and
// factor.
func (sc Scale) dag(coupling, pattern string) (*workflow.DAG, error) {
	f, err := scenarioFiles.Open(fmt.Sprintf("scenarios/%s-%s-%s.dag", sc.Name, coupling, strings.ReplaceAll(pattern, "/", "-")))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := workflow.Parse(f)
	if err != nil {
		return nil, err
	}
	copy(d.Domain, sc.Domain)
	for _, spec := range d.Decomps {
		copy(spec.Block, sc.Block) // block-cyclic only: no other kind has one
	}
	if sc.Factor <= 1 {
		return d, nil
	}
	for x, dim := sc.Factor, 0; x > 1; x, dim = x>>1, (dim+1)%len(d.Domain) {
		d.Domain[dim] *= 2
		for _, spec := range d.Decomps {
			spec.Grid[dim] *= 2
		}
	}
	most := 0
	stages, _ := d.Stages() // Parse has ordered them
	for _, stage := range stages {
		n := 0
		for _, b := range stage {
			for _, app := range d.Bundles[b] {
				n += tasks(d.Decomps[app].Grid)
			}
		}
		most = max(most, n)
	}
	d.Nodes = (most + d.CoresPerNode - 1) / d.CoresPerNode
	return d, nil
}

// tasks returns the product of a grid.
func tasks(grid []int) int {
	n := 1
	for _, p := range grid {
		n *= p
	}
	return n
}

// Patterns returns the decomposition pattern pairs of Figures 8/9, as
// producer/consumer: three matching pairs and two mismatched ones.
func Patterns() []string {
	return []string{"blocked/blocked", "cyclic/cyclic", "bcyclic/bcyclic", "blocked/cyclic", "blocked/bcyclic"}
}

// Scenario is one evaluation workflow built from its file: one machine, a
// producer whose data its consumers pull, and the placements of the two
// task mappings every figure compares, each computed on first use. Its
// queries take the mapping as the runtime.Policy an executed run takes.
// A Scenario is not safe for concurrent use.
type Scenario struct {
	DAG     *workflow.DAG
	Machine *cluster.Machine
	Prod    graph.App
	Cons    []graph.App
	// ProdPl is the producer's placement when it ran alone before its
	// consumers (SAP1, placed round-robin; its stored blocks live on its
	// cores); nil when each mapping places it with its consumer (CAP1).
	ProdPl *cluster.Placement
	// dataCentric computes the data-centric placement of the mapped apps.
	dataCentric func() (*cluster.Placement, error)
	placed      [2]*cluster.Placement // by runtime.Policy
}

// placements returns where policy puts the producer's tasks and the
// consumers'. The round-robin baseline is SMP-style consecutive placement
// — what the paper's "round-robin task mapping employed by many MPI job
// launchers" behaves like: each application's ranks pack node after node,
// so intra-application neighbours co-locate but coupling is ignored.
func (s *Scenario) placements(policy runtime.Policy) (prod, cons *cluster.Placement, err error) {
	if s.placed[policy] == nil {
		if policy == runtime.RoundRobin {
			mapped := s.Cons
			if s.ProdPl == nil {
				mapped = append([]graph.App{s.Prod}, mapped...)
			}
			s.placed[policy], err = mapping.Consecutive(s.Machine, mapped, nil)
		} else {
			s.placed[policy], err = s.dataCentric()
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if s.ProdPl != nil {
		return s.ProdPl, s.placed[policy], nil
	}
	return s.placed[policy], s.placed[policy], nil
}

// CoupledNetwork returns the coupled bytes that cross the network under
// policy, summed over the consumers.
func (s *Scenario) CoupledNetwork(policy runtime.Policy) (int64, error) {
	prodPl, consPl, err := s.placements(policy)
	if err != nil {
		return 0, err
	}
	var net int64
	for _, cons := range s.Cons {
		tr, err := mapping.CoupledTraffic(s.Machine, prodPl, consPl, s.Prod, cons, ElemSize)
		if err != nil {
			return 0, err
		}
		net += tr.Network
	}
	return net, nil
}

// StencilNetwork returns, per application (the producer, then the
// consumers), the bytes its near-neighbour halo exchange of ghost width
// halo sends over the network under policy.
func (s *Scenario) StencilNetwork(policy runtime.Policy, halo int) ([]int64, error) {
	prodPl, consPl, err := s.placements(policy)
	if err != nil {
		return nil, err
	}
	net := make([]int64, 0, 1+len(s.Cons))
	for i, app := range append([]graph.App{s.Prod}, s.Cons...) {
		pl := consPl
		if i == 0 {
			pl = prodPl
		}
		tr, err := mapping.StencilTraffic(s.Machine, pl, app, halo, ElemSize)
		if err != nil {
			return nil, err
		}
		net = append(net, tr.Network)
	}
	return net, nil
}

// stencil answers StencilNetwork at ghost width halo under both mappings.
func (s *Scenario) stencil(halo int) (rr, dc []int64, err error) {
	return both(func(p runtime.Policy) ([]int64, error) { return s.StencilNetwork(p, halo) })
}

// both answers a query under the round-robin and then the data-centric
// mapping, the figures' column order.
func both[T any](query func(runtime.Policy) (T, error)) (rr, dc T, err error) {
	if rr, err = query(runtime.RoundRobin); err != nil {
		return rr, dc, err
	}
	dc, err = query(runtime.DataCentric)
	return rr, dc, err
}

// RetrieveTimes returns each consumer's coupled-data retrieval time under
// policy, in seconds: the consumers' pulls start together and replay
// through the torus model.
func (s *Scenario) RetrieveTimes(policy runtime.Policy) ([]float64, error) {
	prodPl, consPl, err := s.placements(policy)
	if err != nil {
		return nil, err
	}
	var flows []cluster.Flow
	var owner []int // flow index -> consumer index
	for i, cons := range s.Cons {
		fl, err := mapping.CoupledFlows(prodPl, consPl, s.Prod, cons, ElemSize, "get")
		if err != nil {
			return nil, err
		}
		flows = append(flows, fl...)
		for range fl {
			owner = append(owner, i)
		}
	}
	completion, _ := torusFor(s.Machine.NumNodes()).simulate(flows)
	times := make([]float64, len(s.Cons))
	for i, c := range completion {
		times[owner[i]] = max(times[owner[i]], c)
	}
	return times, nil
}

// newScenario builds what both couplings share from a scenario file: its
// machine, its first application as the producer and the others as its
// consumers.
func newScenario(d *workflow.DAG) (*Scenario, error) {
	decomps, err := d.Decompositions()
	if err != nil {
		return nil, err
	}
	s := &Scenario{DAG: d}
	if s.Machine, err = cluster.NewMachine(d.Nodes, d.CoresPerNode); err != nil {
		return nil, err
	}
	for i, id := range d.Apps {
		app := graph.App{ID: id, Decomp: decomps[id]}
		if app.Decomp == nil {
			return nil, fmt.Errorf("bench: application %d has no DECOMP line", id)
		}
		if i == 0 {
			s.Prod = app
		} else {
			s.Cons = append(s.Cons, app)
		}
	}
	return s, nil
}

// NewConcurrent builds the CAP1/CAP2 concurrently coupled scenario of a file
// whose one bundle is a producer and its consumer: both mappings place them
// together.
func NewConcurrent(d *workflow.DAG) (*Scenario, error) {
	s, err := newScenario(d)
	if err != nil {
		return nil, err
	}
	if len(d.Bundles) != 1 || len(s.Cons) != 1 {
		return nil, fmt.Errorf("bench: a concurrent scenario is one bundle of two applications")
	}
	s.dataCentric = func() (*cluster.Placement, error) {
		return mapping.ServerDataCentric(s.Machine, s.Bundle(), nil, ElemSize, seed)
	}
	return s, nil
}

// NewSequential builds the SAP1 -> SAP2 + SAP3 sequentially coupled
// scenario of a file whose first application is every other's one parent:
// SAP1 runs first, alone, and the mappings place SAP2 + SAP3 jointly on its
// cores, as they launch together.
func NewSequential(d *workflow.DAG) (*Scenario, error) {
	s, err := newScenario(d)
	if err != nil {
		return nil, err
	}
	if s.ProdPl, err = mapping.Consecutive(s.Machine, []graph.App{s.Prod}, nil); err != nil {
		return nil, err
	}
	s.dataCentric = func() (*cluster.Placement, error) {
		return mapping.ClientDataCentricAnalytic(s.Machine, s.ProdPl, s.Prod, s.clientConsumers(), nil)
	}
	return s, nil
}

// scenario builds the scale's scenario of one coupling ("concurrent" or
// "sequential") and pattern.
func (sc Scale) scenario(coupling, pattern string) (*Scenario, error) {
	d, err := sc.dag(coupling, pattern)
	if err != nil {
		return nil, err
	}
	if coupling == "concurrent" {
		return NewConcurrent(d)
	}
	return NewSequential(d)
}

// tasks returns each application's task count, the producer's first.
func (s *Scenario) tasks() []int {
	n := []int{s.Prod.Decomp.NumTasks()}
	for _, c := range s.Cons {
		n = append(n, c.Decomp.NumTasks())
	}
	return n
}

// Bundle returns the mapping bundle of a concurrent scenario.
func (s *Scenario) Bundle() mapping.Bundle {
	b := mapping.Bundle{Apps: append([]graph.App{s.Prod}, s.Cons...)}
	for _, c := range s.Cons {
		b.Couplings = append(b.Couplings, [2]int{s.Prod.ID, c.ID})
	}
	return b
}

// clientConsumers returns the client-side mapping descriptors of a
// sequential scenario's consumers.
func (s *Scenario) clientConsumers() []mapping.Consumer {
	out := make([]mapping.Consumer, len(s.Cons))
	for i, c := range s.Cons {
		out[i] = mapping.Consumer{App: c, Var: "state", Version: 0}
	}
	return out
}
