// Package graph builds the inter-application communication graph used by
// the server-side data-centric task mapping (paper Section IV-B).
//
// Each vertex is one computation task of a parallel application in a
// "bundle" of concurrently coupled applications; each edge connects two
// communicating tasks from different applications, weighted by the number
// of bytes the coupling moves between them. The graph is computed offline
// from the applications' declared data decompositions: the coupled bytes
// between producer rank p and consumer rank c are the overlap volume of
// their owned regions times the element size. KWay (partition.go), the
// METIS substitute, splits the graph into per-node groups.
package graph

import (
	"fmt"
	"sort"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
)

// App is one parallel application of a bundle: its id and declared data
// decomposition.
type App struct {
	ID     int
	Decomp *decomp.Decomposition
}

// BuildInterApp constructs the communication graph of a bundle in the form
// the partitioner reads: one unit weight vertex per task of every
// application, in apps order and rank order within an app, and one edge
// per producer/consumer task pair whose owned regions overlap, weighted by
// overlap volume times elemSize bytes. A pair coupled more than once
// accumulates its weights, self loops are dropped and every adjacency list
// is sorted by neighbour. tasks[v] is the task of vertex v. couplings
// lists the (producer, consumer) application pairs that exchange data;
// both must appear in apps.
func BuildInterApp(apps []App, couplings [][2]int, elemSize int64) (g *Graph, tasks []cluster.TaskID, err error) {
	if elemSize <= 0 {
		return nil, nil, fmt.Errorf("graph: element size %d", elemSize)
	}
	first := make(map[int]int) // application id -> vertex of its rank 0
	byID := make(map[int]App)
	for _, a := range apps {
		if _, dup := byID[a.ID]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate application id %d", a.ID)
		}
		byID[a.ID] = a
		first[a.ID] = len(tasks)
		for r := 0; r < a.Decomp.NumTasks(); r++ {
			tasks = append(tasks, cluster.TaskID{App: a.ID, Rank: r})
		}
	}
	weight := make(map[[2]int]int64) // both directions of every edge
	for _, cp := range couplings {
		prod, ok := byID[cp[0]]
		if !ok {
			return nil, nil, fmt.Errorf("graph: coupling references unknown application %d", cp[0])
		}
		cons, ok := byID[cp[1]]
		if !ok {
			return nil, nil, fmt.Errorf("graph: coupling references unknown application %d", cp[1])
		}
		overlap, err := decomp.NewOverlap(prod.Decomp, cons.Decomp)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: coupling %d->%d: %w", cp[0], cp[1], err)
		}
		overlap.EachPair(func(rp, rc int, vol int64) {
			u, v, w := first[prod.ID]+rp, first[cons.ID]+rc, vol*elemSize
			if u != v && w > 0 {
				weight[[2]int{u, v}] += w
				weight[[2]int{v, u}] += w
			}
		})
	}
	g = &Graph{VWgt: make([]int64, len(tasks)), Adj: make([][]Edge, len(tasks))}
	for v := range g.VWgt {
		g.VWgt[v] = 1
	}
	for uv, w := range weight {
		g.Adj[uv[0]] = append(g.Adj[uv[0]], Edge{To: uv[1], Wgt: w})
	}
	for _, adj := range g.Adj {
		sort.Slice(adj, func(i, j int) bool { return adj[i].To < adj[j].To })
	}
	return g, tasks, nil
}

// StencilBytes returns, for one application, the per-task-pair halo
// exchange volume in bytes: tasks adjacent along a grid dimension exchange
// a halo of width halo cells over their shared face. It is used to model
// intra-application near-neighbour communication (paper Section V-B) and
// can also be merged into a graph for ablation studies.
func StencilBytes(dc *decomp.Decomposition, halo int, elemSize int64) map[[2]int]int64 {
	out := make(map[[2]int]int64)
	grid := dc.Grid()
	n := dc.NumTasks()
	for r := 0; r < n; r++ {
		coord := dc.GridCoord(r)
		vol := dc.OwnedVolume(r)
		for d := range grid {
			if grid[d] == 1 {
				continue
			}
			// Neighbour in +d direction (periodic boundaries, as in the
			// torus-friendly stencils of the target applications).
			nb := append([]int(nil), coord...)
			nb[d] = (coord[d] + 1) % grid[d]
			rn := dc.RankOf(nb)
			if rn == r {
				continue
			}
			// Face volume: owned volume divided by extent along d.
			extent := int64(0)
			for _, iv := range dc.Intervals(d, coord[d], dc.Domain().Min[d], dc.Domain().Max[d]) {
				extent += int64(iv.Hi - iv.Lo)
			}
			if extent == 0 {
				continue
			}
			face := vol / extent
			key := [2]int{r, rn}
			if rn < r {
				key = [2]int{rn, r}
			}
			// Two-way halo exchange of width halo.
			out[key] += 2 * face * int64(halo) * elemSize
		}
	}
	return out
}
