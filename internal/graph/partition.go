package graph

// The multilevel k-way graph partitioner the workflow management server
// uses for server-side data-centric task mapping. The paper uses METIS to
// split the num_task vertices of the inter-application communication graph
// into num_task/core_count groups so that heavily communicating tasks land
// on the same compute node; KWay reimplements the same multilevel scheme
// from scratch:
//
//  1. Coarsening by heavy-edge matching until the graph is small.
//  2. Initial partitioning of the coarsest graph by greedy graph growing.
//  3. Uncoarsening with boundary Kernighan-Lin/Fiduccia-Mattheyses style
//     refinement at every level.
//  4. A final repair pass that enforces the strict per-part capacity
//     (a compute node has exactly core_count cores).

import (
	"fmt"
	"math/rand"
	"sort"
)

// Edge is a weighted adjacency entry.
type Edge struct {
	To  int
	Wgt int64
}

// Graph is an undirected weighted graph in adjacency-list form. Adj must
// be symmetric: v in Adj[u] iff u in Adj[v], with equal weights.
type Graph struct {
	VWgt []int64
	Adj  [][]Edge
}

// numVertices returns the vertex count.
func (g *Graph) numVertices() int { return len(g.VWgt) }

// totalVertexWeight sums all vertex weights.
func (g *Graph) totalVertexWeight() int64 {
	var t int64
	for _, w := range g.VWgt {
		t += w
	}
	return t
}

// validate checks structural invariants (symmetry, weight positivity).
func (g *Graph) validate() error {
	if len(g.VWgt) != len(g.Adj) {
		return fmt.Errorf("partition: VWgt has %d entries, Adj has %d", len(g.VWgt), len(g.Adj))
	}
	for u := range g.Adj {
		if g.VWgt[u] <= 0 {
			return fmt.Errorf("partition: vertex %d has non-positive weight %d", u, g.VWgt[u])
		}
		for _, e := range g.Adj[u] {
			if e.To < 0 || e.To >= len(g.Adj) {
				return fmt.Errorf("partition: vertex %d has edge to %d out of range", u, e.To)
			}
			if e.To == u {
				return fmt.Errorf("partition: vertex %d has a self loop", u)
			}
			if e.Wgt <= 0 {
				return fmt.Errorf("partition: edge (%d,%d) has non-positive weight", u, e.To)
			}
			back := false
			for _, r := range g.Adj[e.To] {
				if r.To == u && r.Wgt == e.Wgt {
					back = true
					break
				}
			}
			if !back {
				return fmt.Errorf("partition: edge (%d,%d) not symmetric", u, e.To)
			}
		}
	}
	return nil
}

// edgeCut returns the total weight of edges crossing parts.
func edgeCut(g *Graph, parts []int) int64 {
	var cut int64
	for u := range g.Adj {
		for _, e := range g.Adj[u] {
			if u < e.To && parts[u] != parts[e.To] {
				cut += e.Wgt
			}
		}
	}
	return cut
}

// partWeights returns the vertex weight of each part.
func partWeights(g *Graph, parts []int, k int) []int64 {
	w := make([]int64, k)
	for v, p := range parts {
		w[p] += g.VWgt[v]
	}
	return w
}

// Options tunes the partitioner.
type Options struct {
	// Seed makes the randomized phases deterministic.
	Seed int64
	// MaxPartWeight is the strict per-part capacity. Zero means
	// ceil(total/k).
	MaxPartWeight int64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices. Zero means max(4*k, 32).
	CoarsenTo int
	// RefinePasses bounds refinement sweeps per level. Zero means 8.
	RefinePasses int
	// SingleLevel skips the multilevel scheme and partitions the input
	// graph directly (used by the ablation benchmarks).
	SingleLevel bool
}

// KWay splits the graph into k parts of bounded weight, minimizing the
// weight of crossing edges. The returned slice maps vertex to part in
// [0,k). It errors if the capacity cannot hold the vertices.
func KWay(g *Graph, k int, opts Options) ([]int, error) {
	n := g.numVertices()
	if k < 1 {
		return nil, fmt.Errorf("partition: k = %d < 1", k)
	}
	total := g.totalVertexWeight()
	cap := opts.MaxPartWeight
	if cap == 0 {
		cap = (total + int64(k) - 1) / int64(k)
	}
	if cap*int64(k) < total {
		return nil, fmt.Errorf("partition: capacity %d x %d parts cannot hold total weight %d", cap, k, total)
	}
	for v := 0; v < n; v++ {
		if g.VWgt[v] > cap {
			return nil, fmt.Errorf("partition: vertex %d weight %d exceeds part capacity %d", v, g.VWgt[v], cap)
		}
	}
	if n == 0 {
		return []int{}, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	coarsenTo := opts.CoarsenTo
	if coarsenTo == 0 {
		coarsenTo = 4 * k
		if coarsenTo < 32 {
			coarsenTo = 32
		}
	}
	passes := opts.RefinePasses
	if passes == 0 {
		passes = 8
	}

	// Multilevel V-cycle.
	type level struct {
		g    *Graph
		cmap []int // fine vertex -> coarse vertex (for the NEXT level)
	}
	levels := []level{{g: g}}
	if !opts.SingleLevel {
		cur := g
		for cur.numVertices() > coarsenTo {
			coarse, cmap := coarsen(cur, cap, rng)
			if coarse.numVertices() >= cur.numVertices() {
				break // no progress; stop coarsening
			}
			levels[len(levels)-1].cmap = cmap
			levels = append(levels, level{g: coarse})
			cur = coarse
		}
	}

	// Initial partition of the coarsest graph.
	coarsest := levels[len(levels)-1].g
	parts := growInitial(coarsest, k, cap, rng)
	refine(coarsest, parts, k, cap, passes)
	repair(coarsest, parts, k, cap)

	// Uncoarsen and refine.
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li].g
		cmap := levels[li].cmap
		fineParts := make([]int, fine.numVertices())
		for v := range fineParts {
			fineParts[v] = parts[cmap[v]]
		}
		parts = fineParts
		refine(fine, parts, k, cap, passes)
		repair(fine, parts, k, cap)
	}
	return parts, nil
}

// coarsen performs one level of heavy-edge matching and returns the coarse
// graph plus the fine-to-coarse vertex map. Matches whose combined weight
// would exceed cap are skipped so coarse vertices stay placeable.
func coarsen(g *Graph, cap int64, rng *rand.Rand) (*Graph, []int) {
	n := g.numVertices()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		best := -1
		var bestW int64 = -1
		for _, e := range g.Adj[u] {
			if match[e.To] != -1 {
				continue
			}
			if g.VWgt[u]+g.VWgt[e.To] > cap {
				continue
			}
			if e.Wgt > bestW {
				bestW = e.Wgt
				best = e.To
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		} else {
			match[u] = u
		}
	}
	// Number coarse vertices.
	cmap := make([]int, n)
	for i := range cmap {
		cmap[i] = -1
	}
	nc := 0
	for u := 0; u < n; u++ {
		if cmap[u] != -1 {
			continue
		}
		v := match[u]
		cmap[u] = nc
		if v != u {
			cmap[v] = nc
		}
		nc++
	}
	cw := make([]int64, nc)
	cadj := make([]map[int]int64, nc)
	for i := range cadj {
		cadj[i] = make(map[int]int64)
	}
	for u := 0; u < n; u++ {
		cu := cmap[u]
		cw[cu] += g.VWgt[u]
		for _, e := range g.Adj[u] {
			cv := cmap[e.To]
			if cv != cu {
				cadj[cu][cv] += e.Wgt
			}
		}
	}
	// Each fine vertex contributes its full weight once, but each coarse
	// vertex weight was accumulated per fine member; the matched pair adds
	// twice the fine weight only if we double counted — we did not: vwgt
	// summed per member, correct.
	coarse := &Graph{VWgt: cw, Adj: make([][]Edge, nc)}
	for cu := range cadj {
		edges := make([]Edge, 0, len(cadj[cu]))
		for cv, w := range cadj[cu] {
			edges = append(edges, Edge{To: cv, Wgt: w})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].To < edges[j].To })
		coarse.Adj[cu] = edges
	}
	return coarse, cmap
}

// growInitial partitions by greedy graph growing: parts are grown one at a
// time from a seed by repeatedly absorbing the unassigned vertex with the
// strongest connection to the growing part.
func growInitial(g *Graph, k int, cap int64, rng *rand.Rand) []int {
	n := g.numVertices()
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	unassigned := n
	remainingWeight := g.totalVertexWeight()
	order := rng.Perm(n)
	for p := 0; p < k && unassigned > 0; p++ {
		target := remainingWeight / int64(k-p)
		if target > cap {
			target = cap
		}
		// Seed: first unassigned vertex in the random order.
		seed := -1
		for _, v := range order {
			if parts[v] == -1 {
				seed = v
				break
			}
		}
		if seed == -1 {
			break
		}
		var weight int64
		gain := make(map[int]int64) // unassigned frontier -> connectivity
		add := func(v int) {
			parts[v] = p
			weight += g.VWgt[v]
			unassigned--
			remainingWeight -= g.VWgt[v]
			delete(gain, v)
			for _, e := range g.Adj[v] {
				if parts[e.To] == -1 {
					gain[e.To] += e.Wgt
				}
			}
		}
		add(seed)
		for weight < target && unassigned > 0 {
			// Strongest-connected frontier vertex that fits.
			best, bestGain := -1, int64(-1)
			for v, gw := range gain {
				if weight+g.VWgt[v] > cap {
					continue
				}
				if gw > bestGain || (gw == bestGain && v < best) {
					best, bestGain = v, gw
				}
			}
			if best == -1 {
				// Frontier exhausted or nothing fits: pull any fitting
				// unassigned vertex to keep growth going.
				for _, v := range order {
					if parts[v] == -1 && weight+g.VWgt[v] <= cap {
						best = v
						break
					}
				}
				if best == -1 {
					break
				}
			}
			if weight+g.VWgt[best] > target && weight > 0 {
				break
			}
			add(best)
		}
	}
	// Anything left goes to the lightest part that fits.
	if unassigned > 0 {
		w := make([]int64, k)
		for v, p := range parts {
			if p >= 0 {
				w[p] += g.VWgt[v]
			}
		}
		for v := range parts {
			if parts[v] != -1 {
				continue
			}
			best := 0
			for p := 1; p < k; p++ {
				if w[p] < w[best] {
					best = p
				}
			}
			parts[v] = best
			w[best] += g.VWgt[v]
		}
	}
	return parts
}

// refine runs greedy boundary refinement sweeps: every vertex may move to
// the neighbouring part that maximally reduces the cut, if the capacity
// allows. Sweeps stop early when a pass makes no move.
func refine(g *Graph, parts []int, k int, cap int64, passes int) {
	n := g.numVertices()
	w := partWeights(g, parts, k)
	for pass := 0; pass < passes; pass++ {
		moves := 0
		for v := 0; v < n; v++ {
			if len(g.Adj[v]) == 0 {
				continue
			}
			own := parts[v]
			// Connectivity to each adjacent part.
			conn := map[int]int64{}
			for _, e := range g.Adj[v] {
				conn[parts[e.To]] += e.Wgt
			}
			bestPart, bestGain := own, int64(0)
			for p, c := range conn {
				if p == own {
					continue
				}
				if w[p]+g.VWgt[v] > cap {
					continue
				}
				gain := c - conn[own]
				if gain > bestGain || (gain == bestGain && gain > 0 && p < bestPart) {
					bestPart, bestGain = p, gain
				}
			}
			if bestPart != own && bestGain > 0 {
				parts[v] = bestPart
				w[own] -= g.VWgt[v]
				w[bestPart] += g.VWgt[v]
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}
}

// repair enforces the strict capacity: vertices are moved out of
// overweight parts into the lightest fitting parts, choosing the vertex
// with the smallest cut penalty.
func repair(g *Graph, parts []int, k int, cap int64) {
	w := partWeights(g, parts, k)
	// The fallback branch can in principle oscillate on heavily weighted
	// coarse graphs; bound the work (the finest level has unit weights and
	// always converges long before this).
	for iter := 0; iter <= len(parts)*k; iter++ {
		over := -1
		for p := 0; p < k; p++ {
			if w[p] > cap {
				over = p
				break
			}
		}
		if over == -1 {
			return
		}
		// Choose the (vertex, target) with minimal cut increase.
		bestV, bestTarget := -1, -1
		var bestPenalty int64
		for v := range parts {
			if parts[v] != over {
				continue
			}
			conn := map[int]int64{}
			for _, e := range g.Adj[v] {
				conn[parts[e.To]] += e.Wgt
			}
			for p := 0; p < k; p++ {
				if p == over || w[p]+g.VWgt[v] > cap {
					continue
				}
				penalty := conn[over] - conn[p]
				if bestV == -1 || penalty < bestPenalty {
					bestV, bestTarget, bestPenalty = v, p, penalty
				}
			}
		}
		if bestV == -1 {
			// No single move fits; move the lightest vertex to the
			// lightest part regardless (guaranteed overall capacity was
			// validated up front, so this converges).
			lightest := 0
			for p := 1; p < k; p++ {
				if w[p] < w[lightest] {
					lightest = p
				}
			}
			for v := range parts {
				if parts[v] == over && (bestV == -1 || g.VWgt[v] < g.VWgt[bestV]) {
					bestV = v
				}
			}
			bestTarget = lightest
		}
		parts[bestV] = bestTarget
		w[over] -= g.VWgt[bestV]
		w[bestTarget] += g.VWgt[bestV]
	}
}
