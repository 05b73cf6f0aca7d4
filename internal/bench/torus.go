package bench

// The torus model stands in for the Cray XT5's SeaStar2+ 3-D torus in the
// paper's testbed, and only the figures read it: nodes are laid out on a
// 3-D torus, messages follow dimension-order routes, and concurrent
// transfers share link bandwidth max-min fairly, which reproduces the
// contention effects the paper observes in its weak-scaling experiment
// (Figure 16). simulate replays a set of flows that start simultaneously
// (one coupling phase) and reports when each flow completes.

import (
	"fmt"
	"math"
	"sort"

	"github.com/insitu/cods/internal/cluster"
)

// The model's link and memory parameters, in the neighbourhood of a
// 2012-era Cray XT5: ~2 GB/s effective per link, ~5 us per hop, ~3 GB/s
// node-local memory bandwidth. They are variables, not constants, so that
// each sum is evaluated at run time in float64, as the committed figures
// were: a constant expression would be folded at arbitrary precision.
var (
	// linkBandwidth is the capacity of one torus link in bytes/second.
	linkBandwidth = 2.0e9
	// linkLatency is the per-hop propagation plus routing delay in seconds.
	linkLatency = 5e-6
	// shmBandwidth is the intra-node memory copy bandwidth in bytes/second.
	shmBandwidth = 3.0e9
	// shmLatency is the fixed cost of an intra-node transfer in seconds.
	shmLatency = 1e-6
	// perFlowOverhead is the fixed software cost of issuing one transfer
	// request (request message, matching, completion notification). The
	// paper attributes part of the sequential scenario's higher retrieve
	// time to the larger number of concurrent data requests; this term
	// models that cost.
	perFlowOverhead = 10e-6
)

// torus is a 3-D wrap-around grid of nodes laid out row-major
// (z fastest).
type torus struct {
	X, Y, Z int
}

// torusFor picks a near-cubic torus whose X*Y*Z covers numNodes: an exact
// balanced factorization when one exists, otherwise the smallest balanced
// box that fits (nodes are laid out row-major, leaving some coordinates
// unused — the shape a real machine's allocation has, and crucially never
// a degenerate 1x1xN ring for awkward node counts). A cluster.Machine
// has at least one node, so a smaller count is a bug.
func torusFor(numNodes int) torus {
	if numNodes < 1 {
		panic(fmt.Sprintf("bench: torus of %d nodes", numNodes))
	}
	best := torus{}
	bestScore := math.MaxFloat64
	// Search balanced covering boxes around the cube root.
	cb := int(math.Cbrt(float64(numNodes)))
	for x := max(1, cb-2); x <= cb+2; x++ {
		rest := (numNodes + x - 1) / x
		sq := int(math.Sqrt(float64(rest)))
		for y := max(1, sq-2); y <= sq+2; y++ {
			z := (rest + y - 1) / y
			if x*y*z < numNodes {
				continue
			}
			// Prefer tight fits, then low aspect ratio.
			waste := float64(x*y*z-numNodes) / float64(numNodes)
			score := waste*10 + float64(max(x, y, z))/float64(min(x, y, z))
			if score < bestScore {
				bestScore = score
				best = torus{X: x, Y: y, Z: z}
			}
		}
	}
	return best
}

// nodes returns the node count of the torus.
func (t torus) nodes() int { return t.X * t.Y * t.Z }

// coord maps a node id to its (x,y,z) torus coordinate.
func (t torus) coord(n cluster.NodeID) (int, int, int) {
	i := int(n)
	if i < 0 || i >= t.nodes() {
		panic(fmt.Sprintf("bench: node %d outside torus of %d nodes", n, t.nodes()))
	}
	z := i % t.Z
	i /= t.Z
	y := i % t.Y
	x := i / t.Y
	return x, y, z
}

// nodeAt maps a torus coordinate back to a node id.
func (t torus) nodeAt(x, y, z int) cluster.NodeID {
	return cluster.NodeID((x*t.Y+y)*t.Z + z)
}

// linkID identifies a directed link leaving a node along a dimension in a
// direction (0 = positive, 1 = negative).
func (t torus) linkID(node cluster.NodeID, dim, dir int) int {
	return (int(node)*3+dim)*2 + dir
}

// step moves one hop along dim in direction dir with wrap-around.
func (t torus) step(x, y, z, dim, dir int) (int, int, int) {
	d := 1
	if dir == 1 {
		d = -1
	}
	switch dim {
	case 0:
		x = mod(x+d, t.X)
	case 1:
		y = mod(y+d, t.Y)
	case 2:
		z = mod(z+d, t.Z)
	}
	return x, y, z
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// route returns the directed links of the dimension-order (X then Y then Z)
// shortest wrap-around route from src to dst. An empty route means src ==
// dst.
func (t torus) route(src, dst cluster.NodeID) []int {
	sx, sy, sz := t.coord(src)
	dx, dy, dz := t.coord(dst)
	var links []int
	cur := [3]int{sx, sy, sz}
	tgt := [3]int{dx, dy, dz}
	size := [3]int{t.X, t.Y, t.Z}
	for dim := 0; dim < 3; dim++ {
		for cur[dim] != tgt[dim] {
			fwd := mod(tgt[dim]-cur[dim], size[dim])
			bwd := mod(cur[dim]-tgt[dim], size[dim])
			dir := 0
			if bwd < fwd {
				dir = 1
			}
			node := t.nodeAt(cur[0], cur[1], cur[2])
			links = append(links, t.linkID(node, dim, dir))
			cur[0], cur[1], cur[2] = t.step(cur[0], cur[1], cur[2], dim, dir)
		}
	}
	return links
}

// mergedFlow aggregates the input flows that share a (src,dst) node pair;
// they follow the same route, and weighting the aggregate by its component
// count keeps the max-min shares identical to simulating them separately.
type mergedFlow struct {
	path      []int
	remaining float64
	weight    float64
	overhead  float64 // accumulated per-flow request overheads
	inputs    []int   // indices of component input flows
	rate      float64
	done      bool
}

// simulate computes completion times in seconds for a set of flows that
// all start at time zero: completion[i] is input flow i's finish time and
// makespan the slowest flow's. Intra-node flows (Src == Dst) use the
// shared-memory cost model; inter-node flows share torus links max-min
// fairly.
func (t torus) simulate(flows []cluster.Flow) (completion []float64, makespan float64) {
	completion = make([]float64, len(flows))

	merged := make(map[[2]cluster.NodeID]*mergedFlow)
	for i, f := range flows {
		if f.Bytes < 0 {
			panic("bench: negative flow size")
		}
		if f.Src == f.Dst {
			completion[i] = shmLatency + perFlowOverhead + float64(f.Bytes)/shmBandwidth
			if completion[i] > makespan {
				makespan = completion[i]
			}
			continue
		}
		key := [2]cluster.NodeID{f.Src, f.Dst}
		m := merged[key]
		if m == nil {
			m = &mergedFlow{path: t.route(f.Src, f.Dst)}
			merged[key] = m
		}
		m.remaining += float64(f.Bytes)
		m.weight++
		m.overhead += perFlowOverhead
		m.inputs = append(m.inputs, i)
	}
	if len(merged) == 0 {
		return completion, makespan
	}

	// Deterministic ordering of merged flows.
	keys := make([][2]cluster.NodeID, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	active := make([]*mergedFlow, 0, len(keys))
	for _, k := range keys {
		active = append(active, merged[k])
	}

	now := 0.0
	remaining := len(active)
	for remaining > 0 {
		assignRates(active)
		// Time until the first active flow drains.
		dt := math.MaxFloat64
		for _, m := range active {
			if m.done || m.rate <= 0 {
				continue
			}
			if drain := m.remaining / m.rate; drain < dt {
				dt = drain
			}
		}
		if dt == math.MaxFloat64 {
			// No progress possible: flows with zero bytes.
			dt = 0
		}
		now += dt
		for _, m := range active {
			if m.done {
				continue
			}
			m.remaining -= m.rate * dt
			if m.remaining <= 1e-6 {
				m.done = true
				remaining--
				// Request-processing overhead is serialized per endpoint
				// pair: every component request pays its software cost.
				finish := now + linkLatency*float64(len(m.path)) + m.overhead
				for _, i := range m.inputs {
					completion[i] = finish
					if finish > makespan {
						makespan = finish
					}
				}
			}
		}
	}
	return completion, makespan
}

// assignRates computes weighted max-min fair rates for the non-done flows
// via progressive filling.
func assignRates(active []*mergedFlow) {
	type linkState struct {
		capacity float64
		weight   float64
		flows    []*mergedFlow
	}
	links := make(map[int]*linkState)
	unfixed := 0
	for _, m := range active {
		m.rate = 0
		if m.done {
			continue
		}
		unfixed++
		for _, l := range m.path {
			ls := links[l]
			if ls == nil {
				ls = &linkState{capacity: linkBandwidth}
				links[l] = ls
			}
			ls.weight += m.weight
			ls.flows = append(ls.flows, m)
		}
	}
	fixed := make(map[*mergedFlow]bool)
	for unfixed > 0 {
		// Find the bottleneck link: minimal capacity per unit weight.
		var bottleneck *linkState
		share := math.MaxFloat64
		for _, ls := range links {
			if ls.weight <= 0 {
				continue
			}
			if sh := ls.capacity / ls.weight; sh < share {
				share = sh
				bottleneck = ls
			}
		}
		if bottleneck == nil {
			// Remaining flows traverse only saturated-free links; give them
			// full bandwidth (cannot happen with positive weights, but be
			// safe against an empty link map).
			for _, m := range active {
				if !m.done && !fixed[m] {
					m.rate = linkBandwidth
					fixed[m] = true
					unfixed--
				}
			}
			break
		}
		// Fix every unfixed flow crossing the bottleneck.
		for _, m := range bottleneck.flows {
			if m.done || fixed[m] {
				continue
			}
			m.rate = share * m.weight
			fixed[m] = true
			unfixed--
			for _, l := range m.path {
				ls := links[l]
				ls.capacity -= m.rate
				if ls.capacity < 0 {
					ls.capacity = 0
				}
				ls.weight -= m.weight
			}
		}
		bottleneck.weight = 0
	}
}
