// Package conformance runs generated workflow scenarios (scenario.go)
// through the real shared-space pipeline and through the sequential
// reference model (refmodel.go) side by side, asserting that the
// two agree byte for byte and that the cross-layer accounting invariants
// hold (DESIGN §5e): metered inter-application traffic equals the
// model-computed intersection volumes partitioned by medium, the fabric's
// medium totals reconcile with the per-class metrics, recorded flows match
// the model-predicted (source node, destination node) aggregation, lookup
// queries return exactly the owners the model predicts, and schedule-cache
// hits never change the bytes moved. Shrink (shrink.go) reduces a failing
// scenario to a minimal one.
package conformance

import (
	"fmt"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/membership"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// Application IDs of the two coupled applications of every scenario.
const (
	prodAppID = 1
	consAppID = 2
)

// Options tunes one conformance run.
type Options struct {
	// Timeout is the watchdog for the whole scenario (0 = 60s). A stuck
	// scenario — e.g. a consumer blocked forever on a stale schedule — is
	// reported as a failure instead of hanging the suite.
	Timeout time.Duration

	// CorruptGet flips one cell of one retrieved region before the
	// model comparison, forcing a deterministic failure. The shrinking
	// tests use it to exercise the minimization machinery on a failure
	// every scenario exhibits.
	CorruptGet bool

	// Backend selects the transport backend: "" or "inproc" keeps every
	// operation in-process; "tcp" runs the scenario's space as a driver
	// over one serving node per machine node (node.Cluster), the shape
	// codsrun -backend=tcp deploys, so every operation on node-held state —
	// an expose included — makes a real round trip through sockets and the
	// wire codec.
	Backend string

	// stats, when non-nil, collects the run's observable outcome — get
	// digests and metered byte totals — for cross-backend comparison.
	stats *RunStats
	// nodes is the TCP leg's cluster (nil in process).
	nodes *node.Cluster
}

// mediumBytes is what the run's fabrics metered on md: the space's own in
// process, the driver's and every serving node's on the TCP leg.
func (o Options) mediumBytes(space *cods.Space, md cluster.Medium) int64 {
	if o.nodes != nil {
		return o.nodes.MediumBytes(md)
	}
	return space.Fabric().MediumBytes(md)
}

// Run executes the scenario and returns nil when the real pipeline agrees
// with the reference model and every invariant holds.
func Run(sc Scenario) error { return RunOpts(sc, Options{}) }

// RunOpts is Run with explicit options.
func RunOpts(sc Scenario, opts Options) error {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	done := make(chan error, 1)
	go func() { done <- run(sc, opts) }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("conformance: scenario stuck after %v (likely a consumer blocked on a never-exposed buffer)\n%s",
			timeout, sc.GoLiteral())
	}
}

// consumer is one consumer task's execution state, persistent across get
// rounds so the schedule cache behaves as it does in a long-running
// application.
type consumer struct {
	h       *cods.Handle
	rank    int
	regions []geometry.BBox
}

func run(sc Scenario, opts Options) error {
	if err := sc.Validate(); err != nil {
		return err
	}

	machine, err := cluster.NewMachine(sc.Nodes, sc.CoresPerNode)
	if err != nil {
		return err
	}
	fabric := transport.NewFabric(machine)
	switch opts.Backend {
	case "", "inproc":
	case "tcp":
		nodes, err := node.NewCluster(fabric, sc.domainBox(), tcpnet.Config{})
		if err != nil {
			return fmt.Errorf("conformance: tcp cluster: %w", err)
		}
		defer nodes.Close()
		opts.nodes = nodes
	default:
		return fmt.Errorf("conformance: unknown backend %q", opts.Backend)
	}
	space, err := cods.NewSpaceWithCurve(fabric, sc.domainBox(), sc.Curve)
	if err != nil {
		return err
	}
	var ledger *membership.Ledger
	if sc.Kill != 0 {
		// The node-loss reconcile re-stages blocks from the put ledger; the
		// recorder must be installed before the producer stages anything.
		ledger = membership.NewLedger()
		space.SetPutRecorder(ledger)
	}
	if sc.Retry > 0 {
		space.SetRetryPolicy(retry.Policy{
			MaxAttempts: sc.Retry,
			BaseDelay:   time.Microsecond,
			MaxDelay:    50 * time.Microsecond,
		})
	}
	if sc.Faults != "" {
		plan, err := transport.ParseFaultPlan([]byte(sc.Faults))
		if err != nil {
			return fmt.Errorf("conformance: fault plan: %w", err)
		}
		fabric.SetFaultPlan(plan)
	}

	prod, err := sc.prodDecomp()
	if err != nil {
		return err
	}
	cons, err := sc.consDecomp()
	if err != nil {
		return err
	}
	prodApp := graph.App{ID: prodAppID, Decomp: prod}
	consApp := graph.App{ID: consAppID, Decomp: cons}
	model := newRefModel(sc.domainBox())
	pred := newPredictor(machine)

	if sc.Stream {
		err = runStreaming(sc, opts, machine, space, ledger, prodApp, consApp, model, pred)
	} else if sc.Sequential {
		err = runSequential(sc, opts, machine, space, ledger, prodApp, consApp, model, pred)
	} else {
		err = runConcurrent(sc, opts, machine, space, prodApp, consApp, model, pred)
	}
	if err != nil {
		return err
	}
	if opts.stats != nil {
		opts.stats.MediumBytes = [2]int64{
			opts.mediumBytes(space, cluster.SharedMemory),
			opts.mediumBytes(space, cluster.Network),
		}
		opts.stats.InterApp = [2]int64{
			machine.Metrics().Bytes(cluster.InterApp, cluster.SharedMemory),
			machine.Metrics().Bytes(cluster.InterApp, cluster.Network),
		}
	}
	return nil
}

// placeConcurrent maps both applications of a concurrent bundle at once.
func placeConcurrent(sc Scenario, m *cluster.Machine, prodApp, consApp graph.App) (*cluster.Placement, error) {
	apps := []graph.App{prodApp, consApp}
	switch sc.Mapping {
	case RoundRobin:
		return mapping.RoundRobin(m, apps, nil)
	case ServerDataCentric:
		return mapping.ServerDataCentric(m, mapping.Bundle{
			Apps:      apps,
			Couplings: [][2]int{{prodAppID, consAppID}},
		}, nil, cods.ElemSize, int64(sc.Seed%1024))
	default:
		return mapping.Consecutive(m, apps, nil)
	}
}

// placeSequentialConsumer maps the consumer of a sequential coupling; for
// the client-side data-centric policy the lookup service must already hold
// the producer's registrations.
func placeSequentialConsumer(sc Scenario, m *cluster.Machine, space *cods.Space, consApp graph.App) (*cluster.Placement, error) {
	switch sc.Mapping {
	case RoundRobin:
		return mapping.RoundRobin(m, []graph.App{consApp}, nil)
	case ClientDataCentric:
		return mapping.ClientDataCentric(m, space.Lookup(), []mapping.Consumer{
			{App: consApp, Var: sc.varNames()[0], Version: 0},
		}, nil, "map")
	default:
		return mapping.Consecutive(m, []graph.App{consApp}, nil)
	}
}

// getRegions returns the regions consumer rank retrieves: its owned boxes,
// ghost-expanded when the scenario has a halo.
func getRegions(cons *decomp.Decomposition, rank, ghost int) []geometry.BBox {
	if ghost > 0 {
		return cons.GhostRegions(rank, ghost)
	}
	return cons.Region(rank)
}

// runTasks runs fn for every index concurrently and returns the first
// error.
func runTasks(n int, fn func(i int) error) error {
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errc <- fn(i) }(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newConsumers builds the persistent consumer states from a placement.
func newConsumers(sc Scenario, space *cods.Space, consPl *cluster.Placement, cons *decomp.Decomposition) []*consumer {
	out := make([]*consumer, cons.NumTasks())
	for r := range out {
		core := consPl.MustCoreOf(cluster.TaskID{App: consAppID, Rank: r})
		out[r] = &consumer{
			h:       space.HandleAt(core, consAppID, "couple"),
			rank:    r,
			regions: getRegions(cons, r, sc.Ghost),
		}
	}
	return out
}

// rotate returns the consumer's deterministic, seed-dependent traversal
// order of its regions, so get orderings vary across scenarios without
// introducing nondeterminism within one.
func rotate(n int, seed uint64, rank int) []int {
	if n == 0 {
		return nil // a block-cyclic tail task can own no regions at all
	}
	out := make([]int, n)
	off := int((seed>>8 + uint64(uint32(rank))) % uint64(n))
	for i := range out {
		out[i] = (i + off) % n
	}
	return out
}

// consumeRound performs one full get round (every consumer, every variable,
// every version) and checks every retrieved region byte for byte against
// the model. round tags restage rounds; the forced corruption only applies
// to round 0 so the second round of a restage scenario stays meaningful.
func consumeRound(sc Scenario, opts Options, consumers []*consumer, model *refModel,
	get func(c *consumer, v string, version int, region geometry.BBox) ([]float64, error), round int) error {
	return runTasks(len(consumers), func(i int) error {
		c := consumers[i]
		order := rotate(len(c.regions), sc.Seed, c.rank)
		for version := 0; version < sc.Versions; version++ {
			for _, v := range sc.varNames() {
				for _, ri := range order {
					region := c.regions[ri]
					got, err := get(c, v, version, region)
					if err != nil {
						return fmt.Errorf("conformance: rank %d get %q v%d %v: %w\n%s",
							c.rank, v, version, region, err, sc.GoLiteral())
					}
					if opts.CorruptGet && round == 0 && c.rank == 0 && ri == 0 && version == 0 && v == sc.varNames()[0] {
						got[0]++ // forced divergence for the shrinking tests
					}
					if opts.stats != nil {
						opts.stats.recordGet(getKey(c.rank, v, version, round, region), got)
					}
					want, err := model.Get(v, version, region)
					if err != nil {
						return fmt.Errorf("conformance: model get %q v%d %v: %w", v, version, region, err)
					}
					for j := range want {
						if got[j] != want[j] {
							return fmt.Errorf("conformance: rank %d %q v%d %v: cell %d = %v, model says %v\n%s",
								c.rank, v, version, region, j, got[j], want[j], sc.GoLiteral())
						}
					}
				}
			}
		}
		return nil
	})
}

// runConcurrent executes a concurrently coupled scenario: both
// applications are placed as one bundle, producers expose their blocks for
// direct pulls and consumers locate them through the producer's
// decomposition, overlapped in time unless the scenario is staged.
func runConcurrent(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	prodApp, consApp graph.App, model *refModel, pred *predictor) error {
	pl, err := placeConcurrent(sc, machine, prodApp, consApp)
	if err != nil {
		return err
	}
	prod, cons := prodApp.Decomp, consApp.Decomp

	// The model is fully populated up front: concurrent consumers block
	// until the producer exposes each block, so the final bytes are
	// defined regardless of interleaving.
	for r := 0; r < prod.NumTasks(); r++ {
		core := pl.MustCoreOf(cluster.TaskID{App: prodAppID, Rank: r})
		for version := 0; version < sc.Versions; version++ {
			for _, v := range sc.varNames() {
				for _, piece := range prod.Region(r) {
					if err := model.Put(v, version, piece, int(core), sc.fillRegion(v, version, piece)); err != nil {
						return err
					}
				}
			}
		}
	}
	consumers := newConsumers(sc, space, pl, cons)
	for _, c := range consumers {
		for version := 0; version < sc.Versions; version++ {
			for _, v := range sc.varNames() {
				for _, region := range c.regions {
					pred.addGet(model, v, version, region, c.h.Core())
				}
			}
		}
	}

	info := cods.ProducerInfo{
		Decomp: prod,
		CoreOf: func(rank int) cluster.CoreID {
			return pl.MustCoreOf(cluster.TaskID{App: prodAppID, Rank: rank})
		},
	}
	produce := func(r int) error {
		h := space.HandleAt(pl.MustCoreOf(cluster.TaskID{App: prodAppID, Rank: r}), prodAppID, "stage")
		for version := 0; version < sc.Versions; version++ {
			for _, v := range sc.varNames() {
				for _, piece := range prod.Region(r) {
					if err := h.PutConcurrent(v, version, piece, sc.fillRegion(v, version, piece)); err != nil {
						return fmt.Errorf("conformance: rank %d put %q v%d %v: %w", r, v, version, piece, err)
					}
				}
			}
		}
		return nil
	}
	get := func(c *consumer, v string, version int, region geometry.BBox) ([]float64, error) {
		return c.h.GetConcurrent(info, v, version, region)
	}

	if sc.Staged {
		if err := runTasks(prod.NumTasks(), produce); err != nil {
			return err
		}
		if err := consumeRound(sc, opts, consumers, model, get, 0); err != nil {
			return err
		}
	} else {
		perr := make(chan error, 1)
		go func() { perr <- runTasks(prod.NumTasks(), produce) }()
		cerr := consumeRound(sc, opts, consumers, model, get, 0)
		if err := <-perr; err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
	}
	return checkInvariants(sc, opts, machine, space, pred, consumers, pl, pl, prodApp, consApp)
}

// runSequential executes a sequentially coupled scenario: the producer
// stages every version through the lookup service and finishes; the
// consumer is then placed (possibly data-centrically, from the populated
// lookup) and retrieves everything; a restage scenario then moves every
// block to a different core and re-runs the gets.
func runSequential(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	ledger *membership.Ledger, prodApp, consApp graph.App, model *refModel, pred *predictor) error {
	prod, cons := prodApp.Decomp, consApp.Decomp
	prodPl, err := mapping.Consecutive(machine, []graph.App{prodApp}, nil)
	if err != nil {
		return err
	}
	if err := runTasks(prod.NumTasks(), func(r int) error {
		core := prodPl.MustCoreOf(cluster.TaskID{App: prodAppID, Rank: r})
		h := space.HandleAt(core, prodAppID, "stage")
		for version := 0; version < sc.Versions; version++ {
			for _, v := range sc.varNames() {
				for _, piece := range prod.Region(r) {
					if err := h.PutSequential(v, version, piece, sc.fillRegion(v, version, piece)); err != nil {
						return fmt.Errorf("conformance: rank %d put %q v%d %v: %w", r, v, version, piece, err)
					}
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for r := 0; r < prod.NumTasks(); r++ {
		core := prodPl.MustCoreOf(cluster.TaskID{App: prodAppID, Rank: r})
		for version := 0; version < sc.Versions; version++ {
			for _, v := range sc.varNames() {
				for _, piece := range prod.Region(r) {
					if err := model.Put(v, version, piece, int(core), sc.fillRegion(v, version, piece)); err != nil {
						return err
					}
				}
			}
		}
	}
	if err := checkOwners(sc, machine, space, cons, model, sc.Versions, -1); err != nil {
		return err
	}

	consPl, err := placeSequentialConsumer(sc, machine, space, consApp)
	if err != nil {
		return err
	}
	consumers := newConsumers(sc, space, consPl, cons)
	for _, c := range consumers {
		for version := 0; version < sc.Versions; version++ {
			for _, v := range sc.varNames() {
				for _, region := range c.regions {
					pred.addGet(model, v, version, region, c.h.Core())
				}
			}
		}
	}
	get := func(c *consumer, v string, version int, region geometry.BBox) ([]float64, error) {
		return c.h.GetSequential(v, version, region)
	}
	if err := consumeRound(sc, opts, consumers, model, get, 0); err != nil {
		return err
	}

	if sc.Restage {
		// Every block changes owner. The flow deltas across this epoch —
		// the move and the re-get — must equal what the model predicts
		// for the re-get alone under the new ownership: moving a block
		// books no coupled bytes.
		window := obs.NewFlowWindow()
		before := obs.BuildFlowMatrix(machine.Metrics().Flows(""))
		window.Update(&before)
		pred.voidOwned(sc, model, func(cluster.CoreID) bool { return true })
		if err := restage(sc, machine, space, prod, prodPl, model); err != nil {
			return err
		}
		if err := checkOwners(sc, machine, space, cons, model, sc.Versions, -1); err != nil {
			return err
		}
		// The round is predicted twice: into the cumulative predictor
		// (invariants 1-4b run over the whole scenario) and into one that
		// holds only this epoch.
		epoch := newPredictor(machine)
		if err := reget(sc, opts, consumers, model, get, pred, epoch); err != nil {
			return err
		}
		after := obs.BuildFlowMatrix(machine.Metrics().Flows(""))
		window.Update(&after)
		deltas := make(map[flowKey]int64)
		for _, c := range after.Cells {
			if c.Class == cluster.InterApp.String() {
				deltas[flowKey{src: cluster.NodeID(c.Src), dst: cluster.NodeID(c.Dst)}] += c.Delta
			}
		}
		if err := compareFlowMaps(deltas, epoch.flows); err != nil {
			return fmt.Errorf("restage epoch delta: %w\n%s", err, sc.GoLiteral())
		}
	}

	if sc.Kill != 0 {
		// The node's serving process is lost and replaced in its slot: the
		// model is untouched because ownership is where it was, and the
		// re-gets must return byte-identical data through schedules the
		// reconcile's re-stages forced to be recomputed.
		pred.voidOwned(sc, model, func(owner cluster.CoreID) bool {
			return machine.NodeOf(owner) == cluster.NodeID(sc.Kill-1)
		})
		if err := loseNode(sc, opts, machine, space, ledger, cons, model, sc.Versions); err != nil {
			return err
		}
		if err := reget(sc, opts, consumers, model, get, pred); err != nil {
			return err
		}
	}
	return checkInvariants(sc, opts, machine, space, pred, consumers, prodPl, consPl, prodApp, consApp)
}

// reget is the second get round every ownership event of a single-version
// scenario ends with — a restage or a node loss: the model's current
// ownership predicts the round's traffic into each given predictor, then
// every consumer re-gets everything as round 1.
func reget(sc Scenario, opts Options, consumers []*consumer, model *refModel,
	get func(c *consumer, v string, version int, region geometry.BBox) ([]float64, error), preds ...*predictor) error {
	for _, c := range consumers {
		for _, v := range sc.varNames() {
			for _, region := range c.regions {
				for _, p := range preds {
					p.addGet(model, v, 0, region, c.h.Core())
				}
			}
		}
	}
	return consumeRound(sc, opts, consumers, model, get, 1)
}

// loseNode is the node loss of the lock-step elastic round and of the
// mid-stream kill, recovered by the function codsrun -elastic runs once the
// replacement process has joined in the dead node's slot. Only the TCP leg
// has a process to lose: Cluster.Replace takes the node's buffers and its
// DHT core's table, and before the reconcile the loss must be visible — the
// lost table empty, and every lookup short by exactly the records the model
// says only that table held — so a crash that silently leaves state behind
// fails here instead of passing the rounds that follow. The in-process leg
// loses nothing: its lookup must still answer with every owner, and the
// same reconcile then runs against the intact space, an idempotence check
// issuing the control RPCs the TCP leg issues. After membership.Reconcile
// the lookup must answer with the model's owners, which never changed.
// versions bounds the versions checked.
func loseNode(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space, ledger *membership.Ledger,
	cons *decomp.Decomposition, model *refModel, versions int) error {
	killed, lost := sc.Kill-1, -1
	if opts.nodes != nil {
		n, err := opts.nodes.Replace(cluster.NodeID(killed))
		if err != nil {
			return fmt.Errorf("conformance: replacing node %d: %w", killed, err)
		}
		if left := n.Space().Lookup().TableSize(killed); left != 0 {
			return fmt.Errorf("conformance: lost node %d still holds %d location records\n%s", killed, left, sc.GoLiteral())
		}
		lost = killed
	}
	if err := checkOwners(sc, machine, space, cons, model, versions, lost); err != nil {
		return fmt.Errorf("after losing node %d, before the reconcile: %w", killed, err)
	}
	if _, err := membership.Reconcile(space, ledger, []cluster.NodeID{cluster.NodeID(killed)}); err != nil {
		return fmt.Errorf("conformance: reconcile after losing node %d: %w\n%s", killed, err, sc.GoLiteral())
	}
	return checkOwners(sc, machine, space, cons, model, versions, -1)
}

// restage moves every stored block one node over (one core over on a
// single-node machine): discard at the old core, re-stage at the new one.
// Schedule caches must notice — a consumer still pulling at the old core
// would block forever on the unexposed buffer.
func restage(sc Scenario, machine *cluster.Machine, space *cods.Space,
	prod *decomp.Decomposition, prodPl *cluster.Placement, model *refModel) error {
	shift := machine.CoresPerNode()
	if machine.NumNodes() == 1 {
		shift = 1
	}
	for r := 0; r < prod.NumTasks(); r++ {
		oldCore := prodPl.MustCoreOf(cluster.TaskID{App: prodAppID, Rank: r})
		newCore := cluster.CoreID((int(oldCore) + shift) % machine.TotalCores())
		hOld := space.HandleAt(oldCore, prodAppID, "restage")
		hNew := space.HandleAt(newCore, prodAppID, "restage")
		for _, v := range sc.varNames() {
			for _, piece := range prod.Region(r) {
				if err := hOld.DiscardSequential(v, 0, piece); err != nil {
					return fmt.Errorf("conformance: restage discard %q %v: %w", v, piece, err)
				}
				if err := model.Discard(v, 0, piece, int(oldCore)); err != nil {
					return err
				}
				if err := hNew.PutSequential(v, 0, piece, sc.fillRegion(v, 0, piece)); err != nil {
					return fmt.Errorf("conformance: restage put %q %v: %w", v, piece, err)
				}
				if err := model.Put(v, 0, piece, int(newCore), sc.fillRegion(v, 0, piece)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
