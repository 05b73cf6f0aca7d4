// Package cluster models the multi-core compute platform the framework runs
// on: a machine of identical nodes, each with a fixed number of processor
// cores. It stands in for the paper's Cray XT5 allocation (12-core nodes).
//
// The package also owns the measurement side of the reproduction: every
// data transfer the framework performs is recorded here, classified by
// medium (intra-node shared memory vs. inter-node network) and by whether
// it moves data between two applications (coupling) or within one
// (e.g. stencil halo exchange). The evaluation figures are computed from
// these counters, exactly as the paper measures "amount of data transferred
// over the network".
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a compute node.
type NodeID int

// CoreID identifies a processor core globally across the machine.
type CoreID int

// Machine is a homogeneous collection of multi-core nodes. Core c lives on
// node c / CoresPerNode.
type Machine struct {
	numNodes     int
	coresPerNode int
	metrics      *Metrics
}

// NewMachine builds a machine with numNodes nodes of coresPerNode cores.
func NewMachine(numNodes, coresPerNode int) (*Machine, error) {
	if numNodes < 1 {
		return nil, fmt.Errorf("cluster: numNodes %d < 1", numNodes)
	}
	if coresPerNode < 1 {
		return nil, fmt.Errorf("cluster: coresPerNode %d < 1", coresPerNode)
	}
	return &Machine{numNodes: numNodes, coresPerNode: coresPerNode, metrics: NewMetrics()}, nil
}

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return m.numNodes }

// CoresPerNode returns the per-node core count.
func (m *Machine) CoresPerNode() int { return m.coresPerNode }

// TotalCores returns the machine-wide core count.
func (m *Machine) TotalCores() int { return m.numNodes * m.coresPerNode }

// NodeOf maps a core to the node hosting it.
func (m *Machine) NodeOf(c CoreID) NodeID {
	if c < 0 || int(c) >= m.TotalCores() {
		panic(fmt.Sprintf("cluster: core %d out of range [0,%d)", c, m.TotalCores()))
	}
	return NodeID(int(c) / m.coresPerNode)
}

// CoreOn returns the core at the given slot of a node.
func (m *Machine) CoreOn(n NodeID, slot int) CoreID {
	if n < 0 || int(n) >= m.numNodes {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", n, m.numNodes))
	}
	if slot < 0 || slot >= m.coresPerNode {
		panic(fmt.Sprintf("cluster: slot %d out of range [0,%d)", slot, m.coresPerNode))
	}
	return CoreID(int(n)*m.coresPerNode + slot)
}

// SameNode reports whether two cores share a node.
func (m *Machine) SameNode(a, b CoreID) bool { return m.NodeOf(a) == m.NodeOf(b) }

// Metrics returns the machine's transfer counters.
func (m *Machine) Metrics() *Metrics { return m.metrics }

// TaskID identifies one computation task: a (application id, process rank)
// pair, the unit the mapping strategies place onto cores.
type TaskID struct {
	App  int
	Rank int
}

// String renders the task as "app:rank".
func (t TaskID) String() string { return fmt.Sprintf("%d:%d", t.App, t.Rank) }

// Placement records which core runs each computation task. At most one task
// of a given running set occupies a core (the paper creates one execution
// client per core); sequentially coupled applications may reuse cores, so
// placements are per workflow stage.
type Placement struct {
	m      *Machine
	coreOf map[TaskID]CoreID
	used   map[CoreID]TaskID
}

// NewPlacement creates an empty placement for machine m.
func NewPlacement(m *Machine) *Placement {
	return &Placement{m: m, coreOf: make(map[TaskID]CoreID), used: make(map[CoreID]TaskID)}
}

// Assign places task t on core c. It fails if the core is occupied or the
// task is already placed.
func (p *Placement) Assign(t TaskID, c CoreID) error {
	if int(c) >= p.m.TotalCores() || c < 0 {
		return fmt.Errorf("cluster: core %d out of range", c)
	}
	if old, ok := p.used[c]; ok {
		return fmt.Errorf("cluster: core %d already runs task %v", c, old)
	}
	if old, ok := p.coreOf[t]; ok {
		return fmt.Errorf("cluster: task %v already placed on core %d", t, old)
	}
	p.coreOf[t] = c
	p.used[c] = t
	return nil
}

// CoreOf returns the core running task t.
func (p *Placement) CoreOf(t TaskID) (CoreID, bool) {
	c, ok := p.coreOf[t]
	return c, ok
}

// MustCoreOf is CoreOf for callers that know t is placed.
func (p *Placement) MustCoreOf(t TaskID) CoreID {
	c, ok := p.coreOf[t]
	if !ok {
		panic(fmt.Sprintf("cluster: task %v not placed", t))
	}
	return c
}

// NodeOfTask returns the node hosting task t.
func (p *Placement) NodeOfTask(t TaskID) (NodeID, bool) {
	c, ok := p.coreOf[t]
	if !ok {
		return 0, false
	}
	return p.m.NodeOf(c), true
}

// Len returns the number of placed tasks.
func (p *Placement) Len() int { return len(p.coreOf) }

// Tasks returns all placed tasks in deterministic order.
func (p *Placement) Tasks() []TaskID {
	out := make([]TaskID, 0, len(p.coreOf))
	for t := range p.coreOf {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Medium distinguishes the two transfer paths of HybridDART.
type Medium int

// Transfer media.
const (
	SharedMemory Medium = iota
	Network
)

// String names the medium.
func (md Medium) String() string {
	if md == SharedMemory {
		return "shm"
	}
	return "network"
}

// Class distinguishes coupling traffic, internal application traffic and
// framework control traffic (DHT queries, collective bookkeeping).
type Class int

// Transfer classes.
const (
	InterApp Class = iota
	IntraApp
	Control
)

// String names the class.
func (cl Class) String() string {
	switch cl {
	case InterApp:
		return "inter-app"
	case IntraApp:
		return "intra-app"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("Class(%d)", int(cl))
	}
}

// Flow is one recorded transfer between nodes, used by the network
// simulator to compute transfer times under contention. Src == Dst flows
// are shared-memory copies. Its JSON form is one line of a codsrun -flows
// dump (Framework.WriteFlows).
type Flow struct {
	Phase string `json:"phase"` // logical phase tag, e.g. "couple:CAP2"
	Src   NodeID `json:"src"`
	Dst   NodeID `json:"dst"`
	Bytes int64  `json:"bytes"`
	// Medium is the String() form of the transfer's medium ("shm",
	// "network"). Flows synthesized outside the metrics path (what-if
	// analyses) may leave it empty, in which case consumers fall back to
	// the Src == Dst heuristic.
	Medium string `json:"medium,omitempty"`
	// Class is the String() form of the traffic class ("inter-app",
	// "intra-app", "control"); empty when unrecorded.
	Class string `json:"class,omitempty"`
}

// Metrics accumulates transfer statistics. All methods are safe for
// concurrent use.
type Metrics struct {
	mu sync.Mutex
	// bytes[class][medium] totals.
	bytes [3][2]int64
	// perApp[{app, class}] = bytes received by tasks of app, split by
	// medium (the paper reports per-consumer coupled data volumes and
	// per-application intra-app exchange volumes).
	perApp map[appClass]*[2]int64
	flows  []Flow
}

type appClass struct {
	app   int
	class Class
}

// NewMetrics creates an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{perApp: make(map[appClass]*[2]int64)}
}

// Record notes a transfer of n bytes to a task of application dstApp.
// class is IntraApp when source and destination belong to the same
// application. phase tags the flow for timing analysis.
func (mt *Metrics) Record(phase string, class Class, medium Medium, dstApp int, src, dst NodeID, n int64) {
	if n < 0 {
		panic("cluster: negative transfer size")
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.bytes[class][medium] += n
	key := appClass{app: dstApp, class: class}
	e := mt.perApp[key]
	if e == nil {
		e = new([2]int64)
		mt.perApp[key] = e
	}
	e[medium] += n
	mt.flows = append(mt.flows, Flow{
		Phase: phase, Src: src, Dst: dst, Bytes: n,
		Medium: medium.String(), Class: class.String(),
	})
}

// Bytes returns the total bytes for a class and medium.
func (mt *Metrics) Bytes(class Class, medium Medium) int64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.bytes[class][medium]
}

// AppBytes returns the bytes received by application app for the given
// class and medium.
func (mt *Metrics) AppBytes(app int, class Class, medium Medium) int64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if e := mt.perApp[appClass{app: app, class: class}]; e != nil {
		return e[medium]
	}
	return 0
}

// Flows returns a copy of all recorded flows, optionally filtered by phase
// prefix ("" matches everything).
func (mt *Metrics) Flows(phasePrefix string) []Flow {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	var out []Flow
	for _, f := range mt.flows {
		if phasePrefix == "" || hasPrefix(f.Phase, phasePrefix) {
			out = append(out, f)
		}
	}
	return out
}

// AppClassBytes is one per-(application, class) row of a MetricsSnapshot,
// split by medium.
type AppClassBytes struct {
	App   int
	Class Class
	Bytes [2]int64
}

// MetricsSnapshot is a serializable copy of a Metrics, used to ship the
// counters a remote endpoint group (a codsnode process) recorded back to
// the driver. All fields are exported so the snapshot crosses process
// boundaries through the wire codec.
type MetricsSnapshot struct {
	Bytes  [3][2]int64
	PerApp []AppClassBytes
	Flows  []Flow
}

// Snapshot copies the full metric state.
func (mt *Metrics) Snapshot() MetricsSnapshot {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	s := MetricsSnapshot{Bytes: mt.bytes}
	for k, e := range mt.perApp {
		s.PerApp = append(s.PerApp, AppClassBytes{App: k.app, Class: k.class, Bytes: *e})
	}
	s.Flows = append(s.Flows, mt.flows...)
	return s
}

// Merge folds a snapshot taken elsewhere into this metric set. Transfers
// executed by distinct processes are disjoint, so merging every child's
// snapshot into the driver's metrics yields the same totals an in-process
// run records.
func (mt *Metrics) Merge(s MetricsSnapshot) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for class := range s.Bytes {
		for medium := range s.Bytes[class] {
			mt.bytes[class][medium] += s.Bytes[class][medium]
		}
	}
	for _, row := range s.PerApp {
		key := appClass{app: row.App, class: row.Class}
		e := mt.perApp[key]
		if e == nil {
			e = new([2]int64)
			mt.perApp[key] = e
		}
		e[0] += row.Bytes[0]
		e[1] += row.Bytes[1]
	}
	mt.flows = append(mt.flows, s.Flows...)
}

// Reset clears all counters and flows.
func (mt *Metrics) Reset() {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.bytes = [3][2]int64{}
	mt.perApp = make(map[appClass]*[2]int64)
	mt.flows = nil
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
