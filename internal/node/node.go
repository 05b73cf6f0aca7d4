// Package node builds a serving node of the TCP deployment: a transport
// fabric for the machine, the CoDS space whose DHT cores register their
// handlers on it, and a tcpnet server answering for one node of it. A
// codsnode process runs one; Cluster runs one per node inside a single
// process, behind a driver, in the shape codsrun -backend=tcp deploys.
package node

import (
	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// Node is one serving node: its own fabric and CoDS space behind a
// tcpnet.Server. The fabric gets no backend — a node never dials.
type Node struct {
	space  *cods.Space
	server *tcpnet.Server
}

// Start builds node id of machine m and serves it on addr. The space is
// built before the server listens, so its DHT handlers are registered
// before the first request arrives; linking cods also installs the block
// decoder an expose needs. domain must match the driver's space. The node
// never linearizes — the driver routes every DHT call to the node
// intervals a region meets — so its space takes the default curve,
// whichever one the driver picked.
func Start(m *cluster.Machine, id cluster.NodeID, addr string, domain geometry.BBox) (*Node, error) {
	f := transport.NewFabric(m)
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		return nil, err
	}
	server, err := tcpnet.Serve(f, id, addr)
	if err != nil {
		return nil, err
	}
	return &Node{space: sp, server: server}, nil
}

// Space returns the node's space: its exports and its DHT core's table.
func (n *Node) Space() *cods.Space { return n.space }

// Server returns the node's server.
func (n *Node) Server() *tcpnet.Server { return n.server }

// Close stops serving, then closes every endpoint of the node's fabric, as
// the exit of its process would: a read parked on a buffer that will never
// be exposed fails with transport.ErrEndpointClosed instead of leaking its
// goroutine.
func (n *Node) Close() error {
	err := n.server.Close()
	f := n.space.Fabric()
	for c := 0; c < f.Machine().TotalCores(); c++ {
		f.Endpoint(cluster.CoreID(c)).Close()
	}
	return err
}

// Cluster is the TCP deployment inside one process: one Node per node of a
// machine, each on its own fabric and 127.0.0.1 port, and a tcpnet.Connect
// driver on the fabric the caller builds its space on. The nodes share the
// driver's machine, so the flows and class totals they record land in the
// one Metrics the driver reads — what MergeRemoteStats assembles across
// processes. MergeRemoteStats must therefore never be called on a
// Cluster's driver: it would count everything twice.
type Cluster struct {
	driver *tcpnet.Backend
	nodes  []*Node
	// fabrics are the driver's and those of every node ever started, the
	// replaced ones included: their traffic stays in the shared Metrics.
	fabrics []*transport.Fabric
	domain  geometry.BBox
}

// NewCluster starts one node per node of f's machine and installs on f a
// driver that dials them, configured by cfg. domain is that of the space
// the caller builds on f, with any curve.
func NewCluster(f *transport.Fabric, domain geometry.BBox, cfg tcpnet.Config) (*Cluster, error) {
	c := &Cluster{fabrics: []*transport.Fabric{f}, domain: domain}
	peers := make(map[cluster.NodeID]string)
	for k := cluster.NodeID(0); int(k) < f.Machine().NumNodes(); k++ {
		n, err := c.start(k)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		peers[k] = n.server.Addr()
	}
	driver, err := tcpnet.Connect(f, peers, cfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.driver = driver
	f.SetBackend(driver)
	return c, nil
}

func (c *Cluster) start(k cluster.NodeID) (*Node, error) {
	n, err := Start(c.fabrics[0].Machine(), k, "127.0.0.1:0", c.domain)
	if err != nil {
		return nil, err
	}
	c.fabrics = append(c.fabrics, n.space.Fabric())
	return n, nil
}

// Driver returns the driver installed on the caller's fabric.
func (c *Cluster) Driver() *tcpnet.Backend { return c.driver }

// Node returns the node serving k now.
func (c *Cluster) Node(k cluster.NodeID) *Node { return c.nodes[k] }

// Replace is the crash and restart of node k's serving process: it closes
// the node, starts a fresh one in its slot — empty exports, an empty DHT
// table, a fresh port — and routes the driver to it, as the membership
// layer does once a replacement has joined.
// Recovering what the node held is membership.Reconcile's job. Replace
// must not run beside Node or MediumBytes.
func (c *Cluster) Replace(k cluster.NodeID) (*Node, error) {
	old := c.nodes[k]
	old.Close()
	n, err := c.start(k)
	if err != nil {
		return nil, err
	}
	c.nodes[k] = n
	c.driver.UpdatePeer(k, n.server.Addr())
	return n, nil
}

// MediumBytes is the bytes every fabric of the cluster metered on md: the
// driver's (messages between tasks) and the nodes' (everything they
// served), replaced nodes included.
func (c *Cluster) MediumBytes(md cluster.Medium) int64 {
	var n int64
	for _, f := range c.fabrics {
		n += f.MediumBytes(md)
	}
	return n
}

// Close shuts the driver and every node down.
func (c *Cluster) Close() {
	if c.driver != nil {
		c.driver.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}
