// Command codsnode serves one simulated node of a coupled-workflow machine
// over TCP. A driver (codsrun -backend=tcp) launches one codsnode per
// node; each child builds HybridDART and CoDS for the shared machine shape
// — the transport fabric and the CoDS space, whose lookup (DHT) cores
// register their handlers on it, through node.Start, the constructor the
// in-process test cluster shares — and nothing of the layers above them: it
// maps no task and runs none. It owns only its own node's exposed buffers
// and DHT records (mailboxes live with the tasks, in the driver), which it
// serves to the driver through the tcpnet wire protocol. A codsnode answers operations; it never
// initiates one, learns no peer's address and dials nobody.
//
// The child prints one line to stdout once it accepts operations:
//
//	CODSNODE LISTEN <address>
//
// With -obs-http the child first announces its metrics listener:
//
//	CODSNODE OBS <address>
//
// The driver scrapes those lines, runs the workflow, collects each child's
// transfer accounting (and, when it traces, the handler spans the child
// captured for the operations that carried its trace context), and asks
// the children to exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/obs"
)

func main() {
	var (
		node       = flag.Int("node", -1, "node this process serves (required)")
		nodes      = flag.Int("nodes", 0, "total nodes of the machine (required)")
		cores      = flag.Int("cores", 0, "cores per node (required)")
		domainSpec = flag.String("domain", "", "coupled domain size, e.g. 32x32x32 (required)")
		listen     = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		obsOn      = flag.Bool("obs", false, "enable the metrics registry from process start "+
			"(required for the driver's per-node report reconciliation)")
		obsHTTP = flag.String("obs-http", "", "serve the metrics registry over HTTP on this address "+
			"(announced as CODSNODE OBS)")
		pprof = flag.Bool("pprof", false, "also serve net/http/pprof handlers on the -obs-http listener")
	)
	flag.Parse()
	if err := run(nodeOptions{
		node: *node, nodes: *nodes, cores: *cores,
		domainSpec: *domainSpec, listen: *listen,
		obs: *obsOn, obsHTTP: *obsHTTP, pprof: *pprof,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "codsnode: %v\n", err)
		os.Exit(1)
	}
}

type nodeOptions struct {
	node, nodes, cores int
	domainSpec, listen string
	obs                bool
	obsHTTP            string
	pprof              bool
}

func run(o nodeOptions) error {
	if o.node < 0 || o.nodes < 1 || o.cores < 1 || o.domainSpec == "" {
		return fmt.Errorf("-node, -nodes, -cores and -domain are required")
	}
	domain, err := parseDomain(o.domainSpec)
	if err != nil {
		return err
	}
	// Enabled before the fabric or backend exist, so every instrumented
	// path counts from the first byte and the driver's per-node
	// reconciliation closes with zero delta.
	if o.obs || o.obsHTTP != "" {
		obs.Enable(true)
		defer obs.Enable(false)
	}
	m, err := cluster.NewMachine(o.nodes, o.cores)
	if err != nil {
		return err
	}
	n, err := node.Start(m, cluster.NodeID(o.node), o.listen, geometry.BoxFromSize(domain))
	if err != nil {
		return err
	}
	defer n.Close()
	be := n.Backend()
	if o.obsHTTP != "" {
		h := obs.NewHandler(obs.Default, obs.HandlerOpts{
			Flows: func() []cluster.Flow { return m.Metrics().Flows("") },
			Pprof: o.pprof,
		})
		srv, err := obs.Serve(o.obsHTTP, h)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("CODSNODE OBS %s\n", srv.Addr())
	}
	fmt.Printf("CODSNODE LISTEN %s\n", be.Addr())
	<-be.Done()
	return nil
}

// parseDomain reads the extents of an AxBxC size. Every field must be a
// positive integer that fits an int: an empty field, a stray character, an
// overflowing literal, zero or a negative extent is refused here.
func parseDomain(spec string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(spec, "x") {
		n, err := strconv.Atoi(field)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -domain %q", spec)
		}
		out = append(out, n)
	}
	return out, nil
}
