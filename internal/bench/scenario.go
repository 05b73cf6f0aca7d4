package bench

import (
	"fmt"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
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

// Concurrent is the CAP1/CAP2 concurrently coupled scenario at one scale
// and pattern.
type Concurrent struct {
	Scale   Scale
	Machine *cluster.Machine
	Prod    graph.App // CAP1
	Cons    graph.App // CAP2
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
	return &Concurrent{
		Scale:   sc,
		Machine: m,
		Prod:    graph.App{ID: 1, Decomp: prodDc},
		Cons:    graph.App{ID: 2, Decomp: consDc},
	}, nil
}

// Bundle returns the mapping bundle of the scenario.
func (c *Concurrent) Bundle() mapping.Bundle {
	return mapping.Bundle{
		Apps:      []graph.App{c.Prod, c.Cons},
		Couplings: [][2]int{{c.Prod.ID, c.Cons.ID}},
	}
}

// Placements computes the baseline (launcher) and data-centric
// placements. The baseline is SMP-style consecutive placement — what the
// paper's "round-robin task mapping employed by many MPI job launchers"
// behaves like: each application's ranks pack node after node, so
// intra-application neighbours co-locate but coupling is ignored.
func (c *Concurrent) Placements() (rr, dc *cluster.Placement, err error) {
	rr, err = mapping.Consecutive(c.Machine, c.Bundle().Apps, nil)
	if err != nil {
		return nil, nil, err
	}
	dc, err = mapping.ServerDataCentric(c.Machine, c.Bundle(), nil, ElemSize, c.Scale.Seed)
	if err != nil {
		return nil, nil, err
	}
	return rr, dc, nil
}

// Sequential is the SAP1 -> SAP2 + SAP3 sequentially coupled scenario.
type Sequential struct {
	Scale   Scale
	Machine *cluster.Machine
	Prod    graph.App // SAP1
	Cons2   graph.App // SAP2
	Cons3   graph.App // SAP3
	// ProdPl is SAP1's placement: it runs first, alone, placed round-robin;
	// its stored blocks live on its cores.
	ProdPl *cluster.Placement
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
	return &Sequential{
		Scale:   sc,
		Machine: m,
		Prod:    prod,
		Cons2:   graph.App{ID: 2, Decomp: cons2Dc},
		Cons3:   graph.App{ID: 3, Decomp: cons3Dc},
		ProdPl:  prodPl,
	}, nil
}

// consumers returns the mapping descriptors of SAP2 and SAP3.
func (s *Sequential) consumers() []mapping.Consumer {
	return []mapping.Consumer{
		{App: s.Cons2, Var: "state", Version: 0},
		{App: s.Cons3, Var: "state", Version: 0},
	}
}

// ConsumerPlacements computes the baseline (launcher) and client-side
// data-centric placements of SAP2 + SAP3 (jointly, as they launch
// together).
func (s *Sequential) ConsumerPlacements() (rr, dc *cluster.Placement, err error) {
	apps := []graph.App{s.Cons2, s.Cons3}
	rr, err = mapping.Consecutive(s.Machine, apps, nil)
	if err != nil {
		return nil, nil, err
	}
	dc, err = mapping.ClientDataCentricAnalytic(s.Machine, s.ProdPl, s.Prod, s.consumers(), nil)
	if err != nil {
		return nil, nil, err
	}
	return rr, dc, nil
}
