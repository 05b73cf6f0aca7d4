// Package netsim is a flow-level discrete-event simulator of the
// interconnect of the simulated machine. It stands in for the Cray XT5's
// SeaStar2+ 3-D torus in the paper's testbed: nodes are laid out on a 3-D
// torus, messages follow dimension-order routes, and concurrent transfers
// share link bandwidth max-min fairly, which reproduces the contention
// effects the paper observes in its weak-scaling experiment (Figure 16).
//
// The framework executes data movement functionally and records every
// transfer as a cluster.Flow; this package replays a set of flows that
// start simultaneously (one coupling phase) and reports when each flow and
// the whole phase complete.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"github.com/insitu/cods/internal/cluster"
)

// Config sets the link and memory performance parameters.
type Config struct {
	// LinkBandwidth is the capacity of one torus link in bytes/second.
	LinkBandwidth float64
	// LinkLatency is the per-hop propagation plus routing delay in seconds.
	LinkLatency float64
	// ShmBandwidth is the intra-node memory copy bandwidth in bytes/second.
	ShmBandwidth float64
	// ShmLatency is the fixed cost of an intra-node transfer in seconds.
	ShmLatency float64
	// PerFlowOverhead is the fixed software cost of issuing one transfer
	// request (request message, matching, completion notification). The
	// paper attributes part of the sequential scenario's higher retrieve
	// time to the larger number of concurrent data requests; this term
	// models that cost.
	PerFlowOverhead float64
}

// DefaultConfig returns parameters in the neighbourhood of a 2012-era Cray
// XT5: ~2 GB/s effective per link, ~5 us per hop, ~3 GB/s node-local
// memory bandwidth.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth:   2.0e9,
		LinkLatency:     5e-6,
		ShmBandwidth:    3.0e9,
		ShmLatency:      1e-6,
		PerFlowOverhead: 10e-6,
	}
}

// Torus is a 3-D wrap-around grid of nodes laid out row-major
// (z fastest).
type Torus struct {
	X, Y, Z int
}

// TorusFor picks a near-cubic torus whose X*Y*Z covers numNodes: an exact
// balanced factorization when one exists, otherwise the smallest balanced
// box that fits (nodes are laid out row-major, leaving some coordinates
// unused — the shape a real machine's allocation has, and crucially never
// a degenerate 1x1xN ring for awkward node counts).
func TorusFor(numNodes int) (Torus, error) {
	if numNodes < 1 {
		return Torus{}, fmt.Errorf("netsim: numNodes %d < 1", numNodes)
	}
	best := Torus{}
	bestScore := math.MaxFloat64
	// Search balanced covering boxes around the cube root.
	cb := int(math.Cbrt(float64(numNodes)))
	for x := maxInt(1, cb-2); x <= cb+2; x++ {
		rest := (numNodes + x - 1) / x
		sq := int(math.Sqrt(float64(rest)))
		for y := maxInt(1, sq-2); y <= sq+2; y++ {
			z := (rest + y - 1) / y
			if x*y*z < numNodes {
				continue
			}
			// Prefer tight fits, then low aspect ratio.
			waste := float64(x*y*z-numNodes) / float64(numNodes)
			dims := []int{x, y, z}
			lo, hi := dims[0], dims[0]
			for _, d := range dims[1:] {
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
			score := waste*10 + float64(hi)/float64(lo)
			if score < bestScore {
				bestScore = score
				best = Torus{X: x, Y: y, Z: z}
			}
		}
	}
	return best, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Nodes returns the node count of the torus.
func (t Torus) Nodes() int { return t.X * t.Y * t.Z }

// Coord maps a node id to its (x,y,z) torus coordinate.
func (t Torus) Coord(n cluster.NodeID) (int, int, int) {
	i := int(n)
	if i < 0 || i >= t.Nodes() {
		panic(fmt.Sprintf("netsim: node %d outside torus of %d nodes", n, t.Nodes()))
	}
	z := i % t.Z
	i /= t.Z
	y := i % t.Y
	x := i / t.Y
	return x, y, z
}

// NodeAt maps a torus coordinate back to a node id.
func (t Torus) NodeAt(x, y, z int) cluster.NodeID {
	return cluster.NodeID((x*t.Y+y)*t.Z + z)
}

// linkID identifies a directed link leaving a node along a dimension in a
// direction (0 = positive, 1 = negative).
func (t Torus) linkID(node cluster.NodeID, dim, dir int) int {
	return (int(node)*3+dim)*2 + dir
}

// step moves one hop along dim in direction dir with wrap-around.
func (t Torus) step(x, y, z, dim, dir int) (int, int, int) {
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

// Route returns the directed links of the dimension-order (X then Y then Z)
// shortest wrap-around route from src to dst. An empty route means src ==
// dst.
func (t Torus) Route(src, dst cluster.NodeID) []int {
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
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
			node := t.NodeAt(cur[0], cur[1], cur[2])
			links = append(links, t.linkID(node, dim, dir))
			cur[0], cur[1], cur[2] = t.step(cur[0], cur[1], cur[2], dim, dir)
		}
	}
	return links
}

// Hops returns the route length between two nodes.
func (t Torus) Hops(src, dst cluster.NodeID) int { return len(t.Route(src, dst)) }

// Simulator computes flow completion times on a torus.
type Simulator struct {
	cfg   Config
	torus Torus
}

// New creates a simulator for a machine of numNodes nodes.
func New(cfg Config, numNodes int) (*Simulator, error) {
	if cfg.LinkBandwidth <= 0 || cfg.ShmBandwidth <= 0 {
		return nil, fmt.Errorf("netsim: bandwidths must be positive")
	}
	if cfg.LinkLatency < 0 || cfg.ShmLatency < 0 || cfg.PerFlowOverhead < 0 {
		return nil, fmt.Errorf("netsim: latencies must be non-negative")
	}
	torus, err := TorusFor(numNodes)
	if err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, torus: torus}, nil
}

// Torus exposes the topology used by the simulator.
func (s *Simulator) Torus() Torus { return s.torus }

// Result reports the outcome of simulating one phase of flows.
type Result struct {
	// Completion[i] is the finish time in seconds of input flow i
	// (all flows start at t = 0).
	Completion []float64
	// Makespan is the completion time of the slowest flow.
	Makespan float64
	// NetworkBytes and ShmBytes are the volumes moved on each medium.
	NetworkBytes int64
	ShmBytes     int64
	// MaxLinkBytes is the byte volume routed over the most loaded
	// directed link — the contention hot spot.
	MaxLinkBytes int64
	// TotalHopBytes is the sum over flows of bytes x hops (the
	// bandwidth-distance product the fabric carried).
	TotalHopBytes int64
}

// mergedFlow aggregates the input flows that share a (src,dst) node pair;
// they follow the same route, and weighting the aggregate by its component
// count keeps the max-min shares identical to simulating them separately.
type mergedFlow struct {
	path      []int
	remaining float64
	weight    float64
	hops      int
	overhead  float64 // accumulated per-flow request overheads
	inputs    []int   // indices of component input flows
	rate      float64
	done      bool
}

// Simulate computes completion times for a set of flows that all start at
// time zero. Intra-node flows (Src == Dst) use the shared-memory cost
// model; inter-node flows share torus links max-min fairly.
func (s *Simulator) Simulate(flows []cluster.Flow) Result {
	res := Result{Completion: make([]float64, len(flows))}

	merged := make(map[[2]cluster.NodeID]*mergedFlow)
	for i, f := range flows {
		if f.Bytes < 0 {
			panic("netsim: negative flow size")
		}
		if f.Src == f.Dst {
			res.ShmBytes += f.Bytes
			res.Completion[i] = s.cfg.ShmLatency + s.cfg.PerFlowOverhead + float64(f.Bytes)/s.cfg.ShmBandwidth
			if res.Completion[i] > res.Makespan {
				res.Makespan = res.Completion[i]
			}
			continue
		}
		res.NetworkBytes += f.Bytes
		key := [2]cluster.NodeID{f.Src, f.Dst}
		m := merged[key]
		if m == nil {
			path := s.torus.Route(f.Src, f.Dst)
			m = &mergedFlow{path: path, hops: len(path)}
			merged[key] = m
		}
		m.remaining += float64(f.Bytes)
		m.weight++
		m.overhead += s.cfg.PerFlowOverhead
		m.inputs = append(m.inputs, i)
		res.TotalHopBytes += f.Bytes * int64(m.hops)
	}
	if len(merged) == 0 {
		return res
	}
	// Link load accounting (static: bytes per directed link).
	linkBytes := make(map[int]int64)
	for _, m := range merged {
		for _, l := range m.path {
			linkBytes[l] += int64(m.remaining)
		}
	}
	for _, b := range linkBytes {
		if b > res.MaxLinkBytes {
			res.MaxLinkBytes = b
		}
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
		s.assignRates(active)
		// Time until the first active flow drains.
		dt := math.MaxFloat64
		for _, m := range active {
			if m.done || m.rate <= 0 {
				continue
			}
			if t := m.remaining / m.rate; t < dt {
				dt = t
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
				finish := now + s.cfg.LinkLatency*float64(m.hops) + m.overhead
				for _, i := range m.inputs {
					res.Completion[i] = finish
					if finish > res.Makespan {
						res.Makespan = finish
					}
				}
			}
		}
	}
	return res
}

// assignRates computes weighted max-min fair rates for the non-done flows
// via progressive filling.
func (s *Simulator) assignRates(active []*mergedFlow) {
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
				ls = &linkState{capacity: s.cfg.LinkBandwidth}
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
					m.rate = s.cfg.LinkBandwidth
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

// PhaseTime is a convenience that simulates the flows carrying the given
// phase prefix from a metrics object and returns the makespan.
func (s *Simulator) PhaseTime(m *cluster.Metrics, phasePrefix string) float64 {
	return s.Simulate(m.Flows(phasePrefix)).Makespan
}
