package bench

import (
	"fmt"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/runtime"
)

// ElemSize is the coupled-field element size in bytes.
const ElemSize = 8

// Scale fixes the sizes of one experiment campaign. The paper's base
// configuration: 12-core nodes, a 1024^3 shared domain, producer tasks
// owning 128^3 blocks (16 MB), CAP1/CAP2 on 512/64 cores, SAP1 -> SAP2 +
// SAP3 on 512 -> 128+384 cores.
type Scale struct {
	Name         string
	CoresPerNode int
	Domain       []int
	CAP1Grid     []int
	CAP2Grid     []int
	SAP1Grid     []int
	SAP2Grid     []int
	SAP3Grid     []int
	// Block is the per-dimension block size of block-cyclic variants.
	Block []int
	// Halo is the stencil ghost width of the intra-application exchanges.
	Halo int
	Seed int64
}

// PaperScale reproduces the evaluation's sizes exactly.
func PaperScale() Scale {
	return Scale{
		Name:         "paper",
		CoresPerNode: 12,
		Domain:       []int{1024, 1024, 1024},
		CAP1Grid:     []int{8, 8, 8}, // 512 tasks x 128^3 = 16 MB/task
		CAP2Grid:     []int{4, 4, 4}, // 64 tasks x 128 MB
		SAP1Grid:     []int{8, 8, 8},
		SAP2Grid:     []int{8, 4, 4}, // 128 tasks x 64 MB
		SAP3Grid:     []int{8, 8, 6}, // 384 tasks x ~21 MB
		Block:        []int{64, 64, 64},
		Halo:         2,
		Seed:         1,
	}
}

// SmallScale is a laptop-sized configuration with the same structure
// (used by tests, examples and the functional cross-validation path).
func SmallScale() Scale {
	return Scale{
		Name:         "small",
		CoresPerNode: 4,
		Domain:       []int{32, 32, 32},
		CAP1Grid:     []int{4, 4, 2}, // 32 tasks
		CAP2Grid:     []int{2, 2, 2}, // 8 tasks
		SAP1Grid:     []int{4, 4, 2},
		SAP2Grid:     []int{2, 2, 2}, // 8 tasks
		SAP3Grid:     []int{2, 3, 4}, // 24 tasks
		Block:        []int{4, 4, 4},
		Halo:         1,
		Seed:         1,
	}
}

// WeakScale multiplies the task counts (and the domain, keeping per-task
// volume constant) by factor, which must be a power of two. Dimensions are
// doubled round-robin, mirroring how the paper grows 512/64 to 8192/1024.
func (sc Scale) WeakScale(factor int) (Scale, error) {
	if factor < 1 || factor&(factor-1) != 0 {
		return Scale{}, fmt.Errorf("bench: weak-scaling factor %d is not a power of two", factor)
	}
	out := sc
	out.Name = fmt.Sprintf("%s-x%d", sc.Name, factor)
	out.Domain = append([]int(nil), sc.Domain...)
	grids := [][]int{
		append([]int(nil), sc.CAP1Grid...),
		append([]int(nil), sc.CAP2Grid...),
		append([]int(nil), sc.SAP1Grid...),
		append([]int(nil), sc.SAP2Grid...),
		append([]int(nil), sc.SAP3Grid...),
	}
	d := 0
	for f := factor; f > 1; f >>= 1 {
		out.Domain[d] *= 2
		for _, g := range grids {
			g[d] *= 2
		}
		d = (d + 1) % len(out.Domain)
	}
	out.CAP1Grid, out.CAP2Grid = grids[0], grids[1]
	out.SAP1Grid, out.SAP2Grid, out.SAP3Grid = grids[2], grids[3], grids[4]
	return out, nil
}

// tasks returns the product of a grid.
func tasks(grid []int) int {
	n := 1
	for _, p := range grid {
		n *= p
	}
	return n
}

// Pattern is one x-axis entry of Figures 8/9: the distribution kinds of
// the coupled producer and consumer.
type Pattern struct {
	Name string
	Prod decomp.Kind
	Cons decomp.Kind
}

// Patterns returns the decomposition pattern pairs of the evaluation:
// three matching pairs and two mismatched ones.
func Patterns() []Pattern {
	return []Pattern{
		{Name: "blocked/blocked", Prod: decomp.Blocked, Cons: decomp.Blocked},
		{Name: "cyclic/cyclic", Prod: decomp.Cyclic, Cons: decomp.Cyclic},
		{Name: "bcyclic/bcyclic", Prod: decomp.BlockCyclic, Cons: decomp.BlockCyclic},
		{Name: "blocked/cyclic", Prod: decomp.Blocked, Cons: decomp.Cyclic},
		{Name: "blocked/bcyclic", Prod: decomp.Blocked, Cons: decomp.BlockCyclic},
	}
}

// newDecomp builds a decomposition of the scale's domain.
func (sc Scale) newDecomp(kind decomp.Kind, grid []int) (*decomp.Decomposition, error) {
	return decomp.New(kind, geometry.BoxFromSize(sc.Domain), grid, sc.Block)
}

// scenario is what both evaluation workflows share: one machine, a
// producer whose data its consumers pull, and the placements of the two
// task mappings every figure compares, each computed on first use. Its
// queries take the mapping as the runtime.Policy an executed run takes.
// A scenario is not safe for concurrent use.
type scenario struct {
	Scale   Scale
	Machine *cluster.Machine
	Prod    graph.App
	// ProdPl is the producer's placement when it ran alone before its
	// consumers (SAP1, placed round-robin; its stored blocks live on its
	// cores); nil when each mapping places it with its consumer (CAP1).
	ProdPl    *cluster.Placement
	consumers []graph.App
	// dataCentric computes the data-centric placement of the mapped apps.
	dataCentric func() (*cluster.Placement, error)
	placed      [2]*cluster.Placement // by runtime.Policy
}

// placements returns where policy puts the producer's tasks and the
// consumers'. The round-robin baseline is SMP-style consecutive placement
// — what the paper's "round-robin task mapping employed by many MPI job
// launchers" behaves like: each application's ranks pack node after node,
// so intra-application neighbours co-locate but coupling is ignored.
func (s *scenario) placements(policy runtime.Policy) (prod, cons *cluster.Placement, err error) {
	if s.placed[policy] == nil {
		if policy == runtime.RoundRobin {
			mapped := s.consumers
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
func (s *scenario) CoupledNetwork(policy runtime.Policy) (int64, error) {
	prodPl, consPl, err := s.placements(policy)
	if err != nil {
		return 0, err
	}
	var net int64
	for _, cons := range s.consumers {
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
func (s *scenario) StencilNetwork(policy runtime.Policy, halo int) ([]int64, error) {
	prodPl, consPl, err := s.placements(policy)
	if err != nil {
		return nil, err
	}
	net := make([]int64, 0, 1+len(s.consumers))
	for i, app := range append([]graph.App{s.Prod}, s.consumers...) {
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
func (s *scenario) stencil(halo int) (rr, dc []int64, err error) {
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
func (s *scenario) RetrieveTimes(policy runtime.Policy) ([]float64, error) {
	prodPl, consPl, err := s.placements(policy)
	if err != nil {
		return nil, err
	}
	var flows []cluster.Flow
	var owner []int // flow index -> consumer index
	for i, cons := range s.consumers {
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
	times := make([]float64, len(s.consumers))
	for i, c := range completion {
		times[owner[i]] = max(times[owner[i]], c)
	}
	return times, nil
}

// Concurrent is the CAP1/CAP2 concurrently coupled scenario at one scale
// and pattern: both mappings place CAP1 and CAP2 together.
type Concurrent struct {
	scenario
	Cons graph.App // CAP2
}

// NewConcurrent builds the concurrent scenario: CAP1 and CAP2 share one
// allocation sized to hold both applications.
func NewConcurrent(sc Scale, pat Pattern) (*Concurrent, error) {
	prodDc, err := sc.newDecomp(pat.Prod, sc.CAP1Grid)
	if err != nil {
		return nil, err
	}
	consDc, err := sc.newDecomp(pat.Cons, sc.CAP2Grid)
	if err != nil {
		return nil, err
	}
	total := prodDc.NumTasks() + consDc.NumTasks()
	nodes := (total + sc.CoresPerNode - 1) / sc.CoresPerNode
	m, err := cluster.NewMachine(nodes, sc.CoresPerNode)
	if err != nil {
		return nil, err
	}
	c := &Concurrent{Cons: graph.App{ID: 2, Decomp: consDc}}
	c.scenario = scenario{
		Scale: sc, Machine: m, Prod: graph.App{ID: 1, Decomp: prodDc},
		consumers: []graph.App{c.Cons},
		dataCentric: func() (*cluster.Placement, error) {
			return mapping.ServerDataCentric(m, c.Bundle(), nil, ElemSize, sc.Seed)
		},
	}
	return c, nil
}

// Bundle returns the mapping bundle of the scenario.
func (c *Concurrent) Bundle() mapping.Bundle {
	return mapping.Bundle{
		Apps:      []graph.App{c.Prod, c.Cons},
		Couplings: [][2]int{{c.Prod.ID, c.Cons.ID}},
	}
}

// Sequential is the SAP1 -> SAP2 + SAP3 sequentially coupled scenario:
// SAP1 runs first, alone, and the mappings place SAP2 + SAP3 jointly, as
// they launch together.
type Sequential struct {
	scenario
	Cons2 graph.App // SAP2
	Cons3 graph.App // SAP3
}

// NewSequential builds the sequential scenario. The allocation is sized to
// SAP1 (SAP2 and SAP3 together reuse the same cores afterwards).
func NewSequential(sc Scale, pat Pattern) (*Sequential, error) {
	prodDc, err := sc.newDecomp(pat.Prod, sc.SAP1Grid)
	if err != nil {
		return nil, err
	}
	cons2Dc, err := sc.newDecomp(pat.Cons, sc.SAP2Grid)
	if err != nil {
		return nil, err
	}
	cons3Dc, err := sc.newDecomp(pat.Cons, sc.SAP3Grid)
	if err != nil {
		return nil, err
	}
	if cons2Dc.NumTasks()+cons3Dc.NumTasks() > prodDc.NumTasks() {
		// Consumers reuse SAP1's allocation; grow it if they don't fit.
		// (The paper's 128+384 = 512 exactly reuses SAP1's cores.)
		return nil, fmt.Errorf("bench: consumers (%d tasks) exceed producer allocation (%d)",
			cons2Dc.NumTasks()+cons3Dc.NumTasks(), prodDc.NumTasks())
	}
	nodes := (prodDc.NumTasks() + sc.CoresPerNode - 1) / sc.CoresPerNode
	m, err := cluster.NewMachine(nodes, sc.CoresPerNode)
	if err != nil {
		return nil, err
	}
	prod := graph.App{ID: 1, Decomp: prodDc}
	prodPl, err := mapping.Consecutive(m, []graph.App{prod}, nil)
	if err != nil {
		return nil, err
	}
	s := &Sequential{Cons2: graph.App{ID: 2, Decomp: cons2Dc}, Cons3: graph.App{ID: 3, Decomp: cons3Dc}}
	s.scenario = scenario{
		Scale: sc, Machine: m, Prod: prod, ProdPl: prodPl,
		consumers: []graph.App{s.Cons2, s.Cons3},
		dataCentric: func() (*cluster.Placement, error) {
			return mapping.ClientDataCentricAnalytic(m, prodPl, prod, s.clientConsumers(), nil)
		},
	}
	return s, nil
}

// clientConsumers returns the client-side mapping descriptors of SAP2 and
// SAP3.
func (s *Sequential) clientConsumers() []mapping.Consumer {
	return []mapping.Consumer{
		{App: s.Cons2, Var: "state", Version: 0},
		{App: s.Cons3, Var: "state", Version: 0},
	}
}
