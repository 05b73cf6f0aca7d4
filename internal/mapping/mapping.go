// Package mapping implements the task placement strategies of the
// framework (paper Section IV-B):
//
//   - RoundRobin: the baseline used by common MPI job launchers — tasks
//     are dealt to the allocated compute nodes in rank order, one node
//     after another, with no knowledge of communication.
//   - ServerDataCentric: for a "bundle" of concurrently coupled
//     applications, the workflow management server builds the
//     inter-application communication graph offline and partitions it
//     into one group per compute node (group size = core count) with the
//     multilevel partitioner, so heavily-communicating producer/consumer
//     tasks land on the same node; tasks of each group are assigned to
//     the node's cores round-robin.
//   - ClientDataCentric: for applications sequentially coupled to a
//     completed producer, each execution client queries the Data Lookup
//     service for the storage locations of its assigned task's region and
//     re-dispatches the task to the node holding the largest share of
//     that data. Conflicts for core slots are resolved greedily in task
//     order (the paper's clients race for nodes; a deterministic order
//     keeps the simulation reproducible).
//
// The package also provides analytic traffic accounting: given a
// placement, the exact number of coupled and stencil bytes that cross the
// network is computable from the decompositions alone, which is how the
// benchmark harness reproduces the paper-scale experiments without
// materializing hundreds of gigabytes.
package mapping

import (
	"fmt"
	"sort"
	"strings"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/graph"
)

// allNodes returns the node list or the whole machine when nil.
func allNodes(m *cluster.Machine, nodes []cluster.NodeID) []cluster.NodeID {
	if nodes != nil {
		return nodes
	}
	out := make([]cluster.NodeID, m.NumNodes())
	for i := range out {
		out[i] = cluster.NodeID(i)
	}
	return out
}

// taskList flattens the tasks of the applications in declaration order.
func taskList(apps []graph.App) []cluster.TaskID {
	var tasks []cluster.TaskID
	for _, a := range apps {
		for r := 0; r < a.Decomp.NumTasks(); r++ {
			tasks = append(tasks, cluster.TaskID{App: a.ID, Rank: r})
		}
	}
	return tasks
}

// Consecutive places tasks in rank order, filling every core of a node
// before moving to the next (SMP-style placement, what MPI job launchers
// such as aprun produce by default). This is the launcher baseline the
// paper's evaluation compares the data-centric mapping against: it packs
// each application's neighbouring ranks together (low intra-application
// network traffic) but ignores inter-application coupling entirely.
func Consecutive(m *cluster.Machine, apps []graph.App, nodes []cluster.NodeID) (*cluster.Placement, error) {
	nodes = allNodes(m, nodes)
	tasks := taskList(apps)
	if len(tasks) > len(nodes)*m.CoresPerNode() {
		return nil, fmt.Errorf("mapping: %d tasks exceed %d cores", len(tasks), len(nodes)*m.CoresPerNode())
	}
	p := cluster.NewPlacement(m)
	for i, t := range tasks {
		node := nodes[i/m.CoresPerNode()]
		if err := p.Assign(t, m.CoreOn(node, i%m.CoresPerNode())); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// RoundRobin places the tasks of the given applications onto the nodes in
// round-robin order: task i goes to node i mod n, taking the next free
// core there (spilling to subsequent nodes when full). It is an
// alternative baseline that scatters every application across all nodes.
func RoundRobin(m *cluster.Machine, apps []graph.App, nodes []cluster.NodeID) (*cluster.Placement, error) {
	nodes = allNodes(m, nodes)
	tasks := taskList(apps)
	if len(tasks) > len(nodes)*m.CoresPerNode() {
		return nil, fmt.Errorf("mapping: %d tasks exceed %d cores", len(tasks), len(nodes)*m.CoresPerNode())
	}
	p := cluster.NewPlacement(m)
	slots := make([]int, len(nodes)) // next free slot per node
	for i, t := range tasks {
		placed := false
		for off := 0; off < len(nodes); off++ {
			ni := (i + off) % len(nodes)
			if slots[ni] < m.CoresPerNode() {
				if err := p.Assign(t, m.CoreOn(nodes[ni], slots[ni])); err != nil {
					return nil, err
				}
				slots[ni]++
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("mapping: no free core for task %v", t)
		}
	}
	return p, nil
}

// Bundle describes a set of concurrently coupled applications to be
// scheduled simultaneously, with the (producer, consumer) coupling pairs.
type Bundle struct {
	Apps      []graph.App
	Couplings [][2]int
}

// ServerDataCentric maps a bundle with the server-side data-centric
// strategy: partition the inter-application communication graph into
// num_task/core_count groups (capacity = cores per node), then map each
// group to one node and its tasks to the node's cores round-robin.
func ServerDataCentric(m *cluster.Machine, b Bundle, nodes []cluster.NodeID, elemSize int64, seed int64) (*cluster.Placement, error) {
	return ServerDataCentricOpts(m, b, nodes, elemSize, graph.Options{Seed: seed})
}

// ServerDataCentricOpts is ServerDataCentric with explicit partitioner
// options (the ablation benchmarks use it to compare partitioner
// variants). The capacity option is always overridden with the node core
// count.
func ServerDataCentricOpts(m *cluster.Machine, b Bundle, nodes []cluster.NodeID, elemSize int64, opts graph.Options) (*cluster.Placement, error) {
	nodes = allNodes(m, nodes)
	g, tasks, err := graph.BuildInterApp(b.Apps, b.Couplings, elemSize)
	if err != nil {
		return nil, err
	}
	n := len(tasks)
	if n > len(nodes)*m.CoresPerNode() {
		return nil, fmt.Errorf("mapping: %d tasks exceed %d cores", n, len(nodes)*m.CoresPerNode())
	}
	k := (n + m.CoresPerNode() - 1) / m.CoresPerNode()
	if k > len(nodes) {
		k = len(nodes)
	}
	opts.MaxPartWeight = int64(m.CoresPerNode())
	parts, err := graph.KWay(g, k, opts)
	if err != nil {
		return nil, err
	}
	p := cluster.NewPlacement(m)
	slots := make([]int, len(nodes))
	for v, t := range tasks {
		ni := parts[v]
		if slots[ni] >= m.CoresPerNode() {
			return nil, fmt.Errorf("mapping: partition overfilled node %d", ni)
		}
		if err := p.Assign(t, m.CoreOn(nodes[ni], slots[ni])); err != nil {
			return nil, err
		}
		slots[ni]++
	}
	return p, nil
}

// Consumer is one sequentially coupled application to be mapped
// client-side: its tasks read variable Var at Version, previously stored
// in the space by a completed producer.
type Consumer struct {
	App     graph.App
	Var     string
	Version int
}

// ClientDataCentric maps consumer tasks with the decentralized client-side
// strategy. Tasks are first dealt round-robin (the initial distribution);
// each execution client then queries the lookup service for the locations
// of its task's data region and re-dispatches the task to the node storing
// the largest part of it that still has a free core.
func ClientDataCentric(m *cluster.Machine, lookup *dht.Service, consumers []Consumer,
	nodes []cluster.NodeID, phase string) (*cluster.Placement, error) {
	nodes = allNodes(m, nodes)
	apps := make([]graph.App, len(consumers))
	for i, c := range consumers {
		apps[i] = c.App
	}
	initial, err := RoundRobin(m, apps, nodes)
	if err != nil {
		return nil, err
	}
	locality := func(t cluster.TaskID, c Consumer) (map[cluster.NodeID]int64, error) {
		// The execution client holding the initial assignment issues the
		// lookup queries.
		initCore := initial.MustCoreOf(t)
		cl := lookup.ClientAt(initCore)
		local := make(map[cluster.NodeID]int64)
		for _, piece := range c.App.Decomp.Region(t.Rank) {
			entries, err := cl.Query(phase, c.App.ID, c.Var, c.Version, piece)
			if err != nil {
				return nil, fmt.Errorf("mapping: task %v lookup: %w", t, err)
			}
			for _, e := range entries {
				if sub, ok := e.Region.Intersect(piece); ok {
					local[m.NodeOf(e.Owner)] += sub.Volume()
				}
			}
		}
		return local, nil
	}
	return placeByLocality(m, consumers, initial, nodes, locality)
}

// ClientDataCentricAnalytic is the client-side mapping computed from the
// producer's decomposition and placement instead of lookup-service queries.
// It produces the same placements as ClientDataCentric (the lookup answers
// are derived from the same stored blocks) but runs at paper scale without
// a populated DHT; the benchmark harness uses it for the large experiments
// and the tests cross-validate the two.
func ClientDataCentricAnalytic(m *cluster.Machine, prodPl *cluster.Placement, prod graph.App,
	consumers []Consumer, nodes []cluster.NodeID) (*cluster.Placement, error) {
	nodes = allNodes(m, nodes)
	apps := make([]graph.App, len(consumers))
	for i, c := range consumers {
		apps[i] = c.App
	}
	initial, err := RoundRobin(m, apps, nodes)
	if err != nil {
		return nil, err
	}
	// Pre-resolve producer nodes, then accumulate each consumer task's
	// per-node locality in one sparse overlap sweep per consumer app.
	prodNode := make([]cluster.NodeID, prod.Decomp.NumTasks())
	for rp := range prodNode {
		n, ok := prodPl.NodeOfTask(cluster.TaskID{App: prod.ID, Rank: rp})
		if !ok {
			return nil, fmt.Errorf("mapping: producer task %d unplaced", rp)
		}
		prodNode[rp] = n
	}
	localities := make([]map[int]map[cluster.NodeID]int64, len(consumers))
	for i, c := range consumers {
		ov, err := decomp.NewOverlap(prod.Decomp, c.App.Decomp)
		if err != nil {
			return nil, err
		}
		loc := make(map[int]map[cluster.NodeID]int64, c.App.Decomp.NumTasks())
		ov.EachPair(func(rp, rc int, vol int64) {
			m := loc[rc]
			if m == nil {
				m = make(map[cluster.NodeID]int64)
				loc[rc] = m
			}
			m[prodNode[rp]] += vol
		})
		localities[i] = loc
	}
	consumerIdx := make(map[int]int, len(consumers))
	for i, c := range consumers {
		consumerIdx[c.App.ID] = i
	}
	locality := func(t cluster.TaskID, c Consumer) (map[cluster.NodeID]int64, error) {
		return localities[consumerIdx[c.App.ID]][t.Rank], nil
	}
	return placeByLocality(m, consumers, initial, nodes, locality)
}

// placeByLocality performs the greedy locality-maximizing placement shared
// by the lookup-based and analytic client-side mappings: tasks are
// processed in deterministic order; each goes to the node holding the most
// of its data that still has a free core, falling back to its initial node
// and then to any node with room.
func placeByLocality(m *cluster.Machine, consumers []Consumer, initial *cluster.Placement,
	nodes []cluster.NodeID, locality func(cluster.TaskID, Consumer) (map[cluster.NodeID]int64, error)) (*cluster.Placement, error) {
	final := cluster.NewPlacement(m)
	slots := make([]int, len(nodes))
	nodeIndex := make(map[cluster.NodeID]int, len(nodes))
	for i, n := range nodes {
		nodeIndex[n] = i
	}
	for _, c := range consumers {
		for r := 0; r < c.App.Decomp.NumTasks(); r++ {
			t := cluster.TaskID{App: c.App.ID, Rank: r}
			local, err := locality(t, c)
			if err != nil {
				return nil, err
			}
			// Rank candidate nodes by stored bytes, descending; fall back
			// to the initial node, then any node with room.
			type cand struct {
				node  cluster.NodeID
				bytes int64
			}
			cands := make([]cand, 0, len(local))
			for n, b := range local {
				cands = append(cands, cand{node: n, bytes: b})
			}
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].bytes != cands[j].bytes {
					return cands[i].bytes > cands[j].bytes
				}
				return cands[i].node < cands[j].node
			})
			initNode, _ := initial.NodeOfTask(t)
			cands = append(cands, cand{node: initNode})
			for _, n := range nodes {
				cands = append(cands, cand{node: n})
			}
			placed := false
			for _, cd := range cands {
				ni, ok := nodeIndex[cd.node]
				if !ok || slots[ni] >= m.CoresPerNode() {
					continue
				}
				if err := final.Assign(t, m.CoreOn(cd.node, slots[ni])); err != nil {
					return nil, err
				}
				slots[ni]++
				placed = true
				break
			}
			if !placed {
				return nil, fmt.Errorf("mapping: no free core for task %v", t)
			}
		}
	}
	return final, nil
}

// Describe renders a placement as a per-node occupancy summary ("node 3:
// 1:0 1:1 2:5"), for run reports and debugging.
func Describe(m *cluster.Machine, pl *cluster.Placement) string {
	perNode := make(map[cluster.NodeID][]cluster.TaskID)
	for _, t := range pl.Tasks() {
		n, _ := pl.NodeOfTask(t)
		perNode[n] = append(perNode[n], t)
	}
	var sb strings.Builder
	for n := 0; n < m.NumNodes(); n++ {
		tasks := perNode[cluster.NodeID(n)]
		if len(tasks) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "node %d:", n)
		for _, t := range tasks {
			fmt.Fprintf(&sb, " %s", t)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Traffic is the analytic byte accounting of one coupling or exchange
// under a placement.
type Traffic struct {
	Network int64
	Shm     int64
}

// Total returns all bytes moved.
func (t Traffic) Total() int64 { return t.Network + t.Shm }

// CoupledTraffic computes, from the overlap matrix of a producer/consumer
// pair and a placement of both, how many coupled bytes cross the network
// versus stay inside a node. When consumers were launched later (sequential
// coupling) pass the producer placement the data was stored under.
func CoupledTraffic(m *cluster.Machine, prodPl, consPl *cluster.Placement,
	prod, cons graph.App, elemSize int64) (Traffic, error) {
	var tr Traffic
	err := eachCoupledTransfer(prodPl, consPl, prod, cons, elemSize,
		func(pn, cn cluster.NodeID, bytes int64) {
			if pn == cn {
				tr.Shm += bytes
			} else {
				tr.Network += bytes
			}
		})
	return tr, err
}

// CoupledFlows converts a coupling under a placement into one flow per
// overlapping (producer task, consumer task) pair, tagged with the given
// phase. All flows of a retrieval phase start simultaneously — the
// receiver-driven pulls of every consumer task are issued in parallel —
// so the network simulator can compute the paper's "data retrieve time".
func CoupledFlows(prodPl, consPl *cluster.Placement, prod, cons graph.App,
	elemSize int64, phase string) ([]cluster.Flow, error) {
	var flows []cluster.Flow
	err := eachCoupledTransfer(prodPl, consPl, prod, cons, elemSize,
		func(pn, cn cluster.NodeID, bytes int64) {
			flows = append(flows, cluster.Flow{Phase: phase, Src: pn, Dst: cn, Bytes: bytes})
		})
	return flows, err
}

// eachCoupledTransfer enumerates the node endpoints and byte volume of
// every overlapping producer/consumer task pair.
func eachCoupledTransfer(prodPl, consPl *cluster.Placement, prod, cons graph.App,
	elemSize int64, fn func(pn, cn cluster.NodeID, bytes int64)) error {
	ov, err := decomp.NewOverlap(prod.Decomp, cons.Decomp)
	if err != nil {
		return err
	}
	// Pre-resolve task nodes to keep the pair sweep cheap.
	prodNode := make([]cluster.NodeID, prod.Decomp.NumTasks())
	for rp := range prodNode {
		n, ok := prodPl.NodeOfTask(cluster.TaskID{App: prod.ID, Rank: rp})
		if !ok {
			return fmt.Errorf("mapping: producer task %d unplaced", rp)
		}
		prodNode[rp] = n
	}
	consNode := make([]cluster.NodeID, cons.Decomp.NumTasks())
	for rc := range consNode {
		n, ok := consPl.NodeOfTask(cluster.TaskID{App: cons.ID, Rank: rc})
		if !ok {
			return fmt.Errorf("mapping: consumer task %d unplaced", rc)
		}
		consNode[rc] = n
	}
	ov.EachPair(func(rp, rc int, vol int64) {
		fn(prodNode[rp], consNode[rc], vol*elemSize)
	})
	return nil
}

// StencilTraffic computes the near-neighbour halo exchange bytes of one
// application under a placement, split by medium.
func StencilTraffic(m *cluster.Machine, pl *cluster.Placement, app graph.App,
	halo int, elemSize int64) (Traffic, error) {
	var tr Traffic
	for pair, bytes := range graph.StencilBytes(app.Decomp, halo, elemSize) {
		na, ok := pl.NodeOfTask(cluster.TaskID{App: app.ID, Rank: pair[0]})
		if !ok {
			return Traffic{}, fmt.Errorf("mapping: task %d unplaced", pair[0])
		}
		nb, ok := pl.NodeOfTask(cluster.TaskID{App: app.ID, Rank: pair[1]})
		if !ok {
			return Traffic{}, fmt.Errorf("mapping: task %d unplaced", pair[1])
		}
		if na == nb {
			tr.Shm += bytes
		} else {
			tr.Network += bytes
		}
	}
	return tr, nil
}
