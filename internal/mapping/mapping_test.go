package mapping

import (
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/partition"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

func mustDecomp(t testing.TB, kind decomp.Kind, size, grid []int) *decomp.Decomposition {
	t.Helper()
	dc, err := decomp.New(kind, geometry.BoxFromSize(size), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func machine(t testing.TB, nodes, cores int) *cluster.Machine {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// concurrentScenario: producer 32 tasks, consumer 8 tasks over a 16^3
// domain on 12 nodes x 4 cores.
func concurrentScenario(t testing.TB) (*cluster.Machine, Bundle) {
	m := machine(t, 12, 4)
	size := []int{16, 16, 16}
	prod := mustDecomp(t, decomp.Blocked, size, []int{4, 4, 2})
	cons := mustDecomp(t, decomp.Blocked, size, []int{2, 2, 2})
	return m, Bundle{
		Apps:      []graph.App{{ID: 1, Decomp: prod}, {ID: 2, Decomp: cons}},
		Couplings: [][2]int{{1, 2}},
	}
}

func TestRoundRobinPlacesAllTasks(t *testing.T) {
	m, b := concurrentScenario(t)
	p, err := RoundRobin(m, b.Apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 40 {
		t.Fatalf("placed %d tasks, want 40", p.Len())
	}
	// Round-robin: the first 12 tasks land on distinct nodes.
	seen := map[cluster.NodeID]bool{}
	for r := 0; r < 12; r++ {
		n, _ := p.NodeOfTask(cluster.TaskID{App: 1, Rank: r})
		if seen[n] {
			t.Fatalf("round-robin placed two early tasks on node %d", n)
		}
		seen[n] = true
	}
}

func TestRoundRobinCapacity(t *testing.T) {
	m := machine(t, 2, 2)
	dc := mustDecomp(t, decomp.Blocked, []int{8}, []int{5})
	if _, err := RoundRobin(m, []graph.App{{ID: 1, Decomp: dc}}, nil); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
}

func TestRoundRobinSpillsToNextNode(t *testing.T) {
	m := machine(t, 2, 2)
	dc := mustDecomp(t, decomp.Blocked, []int{8}, []int{4})
	p, err := RoundRobin(m, []graph.App{{ID: 1, Decomp: dc}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("placed %d", p.Len())
	}
}

func TestServerDataCentricReducesNetworkBytes(t *testing.T) {
	m, b := concurrentScenario(t)
	rr, err := RoundRobin(m, b.Apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataCentric, err := ServerDataCentric(m, b, nil, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	prod, cons := b.Apps[0], b.Apps[1]
	trRR, err := CoupledTraffic(m, rr, rr, prod, cons, 8)
	if err != nil {
		t.Fatal(err)
	}
	trDC, err := CoupledTraffic(m, dataCentric, dataCentric, prod, cons, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(16*16*16) * 8
	if trRR.Total() != total || trDC.Total() != total {
		t.Fatalf("coupled totals: rr %d, dc %d, want %d", trRR.Total(), trDC.Total(), total)
	}
	if trDC.Network*2 > trRR.Network {
		t.Fatalf("data-centric network bytes %d not clearly below round-robin %d", trDC.Network, trRR.Network)
	}
}

func TestServerDataCentricRespectsNodeCapacity(t *testing.T) {
	m, b := concurrentScenario(t)
	p, err := ServerDataCentric(m, b, nil, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[cluster.NodeID]int{}
	for _, task := range p.Tasks() {
		n, _ := p.NodeOfTask(task)
		perNode[n]++
	}
	for n, c := range perNode {
		if c > m.CoresPerNode() {
			t.Fatalf("node %d has %d tasks, capacity %d", n, c, m.CoresPerNode())
		}
	}
}

func TestServerDataCentricDeterministic(t *testing.T) {
	m, b := concurrentScenario(t)
	p1, err := ServerDataCentric(m, b, nil, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ServerDataCentric(m, b, nil, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range p1.Tasks() {
		c1 := p1.MustCoreOf(task)
		c2 := p2.MustCoreOf(task)
		if c1 != c2 {
			t.Fatalf("task %v placed on %d and %d for the same seed", task, c1, c2)
		}
	}
}

// sequentialScenario stores producer data in a lookup service and returns
// everything the client-side mapping needs.
func sequentialScenario(t testing.TB) (*cluster.Machine, *dht.Service, *cluster.Placement, graph.App, []Consumer) {
	m := machine(t, 8, 4)
	f := transport.NewFabric(m)
	size := []int{16, 16, 16}
	curve, err := sfc.ForDomain("", size)
	if err != nil {
		t.Fatal(err)
	}
	lookup := dht.NewService(f, curve)

	prod := graph.App{ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{4, 4, 2})}
	prodPl, err := RoundRobin(m, []graph.App{prod}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The producer stored one block per task on its own core.
	for r := 0; r < prod.Decomp.NumTasks(); r++ {
		core := prodPl.MustCoreOf(cluster.TaskID{App: 1, Rank: r})
		cl := lookup.ClientAt(core)
		for _, blk := range prod.Decomp.Region(r) {
			if err := cl.Insert("store", 1, dht.Entry{Var: "v", Version: 0, Region: blk, Owner: core}); err != nil {
				t.Fatal(err)
			}
		}
	}
	consumers := []Consumer{
		{App: graph.App{ID: 2, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2, 2})}, Var: "v", Version: 0},
		{App: graph.App{ID: 3, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2, 4})}, Var: "v", Version: 0},
	}
	return m, lookup, prodPl, prod, consumers
}

func TestClientDataCentricMovesTasksToData(t *testing.T) {
	m, lookup, prodPl, prod, consumers := sequentialScenario(t)
	dataCentric, err := ClientDataCentric(m, lookup, consumers, nil, "map")
	if err != nil {
		t.Fatal(err)
	}
	apps := []graph.App{consumers[0].App, consumers[1].App}
	rr, err := RoundRobin(m, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range consumers {
		trDC, err := CoupledTraffic(m, prodPl, dataCentric, prod, c.App, 8)
		if err != nil {
			t.Fatal(err)
		}
		trRR, err := CoupledTraffic(m, prodPl, rr, prod, c.App, 8)
		if err != nil {
			t.Fatal(err)
		}
		if trDC.Network >= trRR.Network {
			t.Fatalf("app %d: client mapping network %d not below round-robin %d",
				c.App.ID, trDC.Network, trRR.Network)
		}
	}
}

func TestClientDataCentricRespectsCapacity(t *testing.T) {
	m, lookup, _, _, consumers := sequentialScenario(t)
	p, err := ClientDataCentric(m, lookup, consumers, nil, "map")
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[cluster.NodeID]int{}
	for _, task := range p.Tasks() {
		n, _ := p.NodeOfTask(task)
		perNode[n]++
	}
	for n, c := range perNode {
		if c > m.CoresPerNode() {
			t.Fatalf("node %d over capacity: %d", n, c)
		}
	}
	// All 8 + 16 consumer tasks placed.
	if p.Len() != 24 {
		t.Fatalf("placed %d consumer tasks, want 24", p.Len())
	}
}

// The analytic client-side mapping must agree with the lookup-based one:
// both see the same stored blocks.
func TestClientDataCentricAnalyticMatchesLookup(t *testing.T) {
	m, lookup, prodPl, prod, consumers := sequentialScenario(t)
	viaLookup, err := ClientDataCentric(m, lookup, consumers, nil, "map")
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := ClientDataCentricAnalytic(m, prodPl, prod, consumers, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range viaLookup.Tasks() {
		nl, _ := viaLookup.NodeOfTask(task)
		na, _ := analytic.NodeOfTask(task)
		if nl != na {
			t.Fatalf("task %v: lookup mapping node %d, analytic node %d", task, nl, na)
		}
	}
}

func TestCoupledFlowsMatchTraffic(t *testing.T) {
	m, b := concurrentScenario(t)
	p, err := RoundRobin(m, b.Apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CoupledTraffic(m, p, p, b.Apps[0], b.Apps[1], 8)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := CoupledFlows(p, p, b.Apps[0], b.Apps[1], 8, "couple")
	if err != nil {
		t.Fatal(err)
	}
	var net, shm int64
	for _, f := range flows {
		if f.Phase != "couple" {
			t.Fatalf("flow phase = %q", f.Phase)
		}
		if f.Src == f.Dst {
			shm += f.Bytes
		} else {
			net += f.Bytes
		}
	}
	if net != tr.Network || shm != tr.Shm {
		t.Fatalf("flows net/shm = %d/%d, traffic = %d/%d", net, shm, tr.Network, tr.Shm)
	}
}

func TestCoupledTrafficAccountsEveryByte(t *testing.T) {
	m, b := concurrentScenario(t)
	p, err := RoundRobin(m, b.Apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CoupledTraffic(m, p, p, b.Apps[0], b.Apps[1], 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() != int64(16*16*16)*8 {
		t.Fatalf("total coupled bytes = %d", tr.Total())
	}
}

func TestCoupledTrafficUnplacedTask(t *testing.T) {
	m, b := concurrentScenario(t)
	empty := cluster.NewPlacement(m)
	if _, err := CoupledTraffic(m, empty, empty, b.Apps[0], b.Apps[1], 8); err == nil {
		t.Fatal("unplaced tasks accepted")
	}
}

func TestStencilTrafficSplitsByNode(t *testing.T) {
	m := machine(t, 2, 4)
	dc := mustDecomp(t, decomp.Blocked, []int{8, 8}, []int{2, 4})
	app := graph.App{ID: 1, Decomp: dc}
	p, err := RoundRobin(m, []graph.App{app}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := StencilTraffic(m, p, app, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, b := range graph.StencilBytes(dc, 1, 8) {
		want += b
	}
	if tr.Total() != want {
		t.Fatalf("stencil total %d, want %d", tr.Total(), want)
	}
	if tr.Network == 0 {
		t.Fatal("expected some cross-node stencil traffic under round-robin")
	}
}

// The headline behaviour (paper Figures 12/13): data-centric mapping
// increases the smaller application's intra-app network traffic because
// its tasks scatter across nodes, while greatly reducing inter-app bytes.
func TestDataCentricTradeoff(t *testing.T) {
	m, b := concurrentScenario(t)
	rr, err := RoundRobin(m, b.Apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataCentric, err := ServerDataCentric(m, b, nil, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cons := b.Apps[1] // the small app (8 tasks)
	stRR, err := StencilTraffic(m, rr, cons, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	stDC, err := StencilTraffic(m, dataCentric, cons, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Under round-robin the consumer's 8 tasks are spread one per node
	// already; data-centric scatters them with producers, so the stencil
	// traffic must not collapse to shm.
	if stDC.Network < stRR.Network/2 {
		t.Logf("note: consumer stencil network rr=%d dc=%d", stRR.Network, stDC.Network)
	}
	couRR, _ := CoupledTraffic(m, rr, rr, b.Apps[0], cons, 8)
	couDC, _ := CoupledTraffic(m, dataCentric, dataCentric, b.Apps[0], cons, 8)
	if couDC.Network >= couRR.Network {
		t.Fatalf("coupling bytes not reduced: rr=%d dc=%d", couRR.Network, couDC.Network)
	}
}

func TestConsecutivePacksNodes(t *testing.T) {
	m := machine(t, 3, 4)
	dc := mustDecomp(t, decomp.Blocked, []int{8}, []int{8})
	p, err := Consecutive(m, []graph.App{{ID: 1, Decomp: dc}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0-3 on node 0, 4-7 on node 1.
	for r := 0; r < 8; r++ {
		n, _ := p.NodeOfTask(cluster.TaskID{App: 1, Rank: r})
		if int(n) != r/4 {
			t.Fatalf("rank %d on node %d", r, n)
		}
	}
	// Capacity check.
	big := mustDecomp(t, decomp.Blocked, []int{16}, []int{13})
	if _, err := Consecutive(m, []graph.App{{ID: 1, Decomp: big}}, nil); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
}

func TestDescribe(t *testing.T) {
	m := machine(t, 2, 2)
	dc := mustDecomp(t, decomp.Blocked, []int{4}, []int{3})
	p, err := Consecutive(m, []graph.App{{ID: 7, Decomp: dc}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Describe(m, p)
	if !strings.Contains(out, "node 0: 7:0 7:1") || !strings.Contains(out, "node 1: 7:2") {
		t.Fatalf("Describe:\n%s", out)
	}
}

func TestServerDataCentricSingleLevelStillValid(t *testing.T) {
	m, b := concurrentScenario(t)
	p, err := ServerDataCentricOpts(m, b, nil, 8, partition.Options{Seed: 1, SingleLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 40 {
		t.Fatalf("placed %d tasks", p.Len())
	}
	perNode := map[cluster.NodeID]int{}
	for _, task := range p.Tasks() {
		n, _ := p.NodeOfTask(task)
		perNode[n]++
	}
	for n, c := range perNode {
		if c > m.CoresPerNode() {
			t.Fatalf("node %d over capacity: %d", n, c)
		}
	}
}
