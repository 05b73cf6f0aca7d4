package conformance

// Scenario generation (DESIGN §5e). A Scenario is a plain value describing
// one complete coupled run — machine shape, 1-D to 3-D domain, producer and
// consumer decompositions, ghost overlap, coupling mode, task-mapping
// policy, pull-engine tuning, optional fault plan — drawn deterministically
// from a single seed. Run executes scenarios against the real Space and the
// reference model; Shrink reduces a failing scenario to a minimal one.

import (
	"fmt"
	"strings"

	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/workflow"
)

// Policy selects the task-mapping strategy of a scenario.
type Policy int

// The four mapping policies of the framework. Server-side data-centric
// mapping applies to concurrently coupled bundles, client-side to
// sequentially coupled consumers; the generator respects that pairing.
const (
	Consecutive Policy = iota
	RoundRobin
	ServerDataCentric
	ClientDataCentric
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Consecutive:
		return "consecutive"
	case RoundRobin:
		return "round-robin"
	case ServerDataCentric:
		return "server-data-centric"
	case ClientDataCentric:
		return "client-data-centric"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Scenario is one generated coupled-workflow configuration. It is a pure
// value: two runs of the same scenario perform identical operations with
// identical data, which is what makes shrunk repros replayable from the
// printed literal alone.
type Scenario struct {
	// Seed drives the data fill and the per-task operation orderings. It
	// does NOT re-derive the other fields — a shrunk scenario keeps its
	// seed while its structure changes.
	Seed uint64

	// Machine shape.
	Nodes        int
	CoresPerNode int

	// Domain is the coupled data domain, one extent per dimension (1–3).
	Domain []int

	// Sequential selects staged coupling through the lookup service;
	// false couples the applications concurrently with direct pulls.
	Sequential bool

	// Producer and consumer decompositions. Blocks are only consulted for
	// decomp.BlockCyclic.
	ProdKind  decomp.Kind
	ProdGrid  []int
	ProdBlock []int
	ConsKind  decomp.Kind
	ConsGrid  []int
	ConsBlock []int

	// Vars is how many independent variables the producer stages (1 or 2).
	Vars int

	// Ghost expands every consumer get region by this halo width, clipped
	// to the domain, making schedules straddle producer block boundaries.
	Ghost int

	// Versions is the number of coupling iterations.
	Versions int

	// Mapping places the tasks.
	Mapping Policy

	// Staged makes a concurrent scenario run its producers to completion
	// before starting consumers; false overlaps them, with consumers
	// blocking on exposure. Ignored for sequential scenarios (which are
	// always staged by nature).
	Staged bool

	// Curve selects the DHT linearization policy: "" or "hilbert" is the
	// paper's Hilbert curve, "morton" and "rowmajor" the ablation
	// alternatives. Both backends of a cross run share the choice.
	Curve string

	// Restage makes the producers of a sequential single-version scenario
	// discard every block after the first get round and re-stage it at
	// the next rank's core, followed by a second get round — exercising
	// schedule-cache invalidation and DHT removal.
	Restage bool

	// Kill names a node (1-based, so 0 disables) whose serving process is
	// lost after the first get round of a sequential single-version
	// scenario and replaced in its slot: on the TCP leg its exposed buffers
	// and its DHT table are gone (in process there is no process to lose),
	// membership.Reconcile re-stages its blocks from the staged table and
	// re-registers the survivors' records, and a second get round must
	// still return byte-identical data.
	Kill int

	// Faults is an optional transport fault-plan JSON ("" = none). The
	// generator only emits recoverable plans: every error window or
	// fire bound stays below the retry budget.
	Faults string

	// Retry is the retry MaxAttempts for transfers and control RPCs
	// (0 = no retry policy installed).
	Retry int

	// Stream turns a sequential single-version scenario into a streaming
	// coupling run (generateStreaming): the producers publish Rounds
	// versions of the stream variable and the consumers follow through
	// bounded-lag cursors instead of lock-step gets. Drop selects the
	// drop-oldest policy (false = backpressure, run with concurrent
	// producer/consumer goroutines; drop-oldest runs lock-step so the
	// forced retirements are deterministic).
	Stream bool
	Drop   bool

	// Rounds is the number of versions each producer rank publishes, and
	// MaxLag the stream's lag bound.
	Rounds int
	MaxLag int

	// ConsumeEvery is the consumers' acknowledgment stride in a drop-oldest
	// run: cursors read and advance only after every k-th published round,
	// letting versions pile up past MaxLag to force deterministic drops
	// (1 = keep up; >1 requires Drop, since a lock-step backpressure
	// producer would block forever on its lagging consumers).
	ConsumeEvery int

	// Resub, when nonzero, closes every cursor after round Resub (1-based)
	// of a drop-oldest run and resubscribes it from its last position —
	// exercising the SubscribeFrom resume path mid-stream.
	Resub int
}

// domainBox returns the scenario domain as a box anchored at the origin.
func (sc Scenario) domainBox() geometry.BBox { return geometry.BoxFromSize(sc.Domain) }

// prodDecomp builds the producer decomposition.
func (sc Scenario) prodDecomp() (*decomp.Decomposition, error) {
	return decomp.New(sc.ProdKind, sc.domainBox(), sc.ProdGrid, sc.ProdBlock)
}

// consDecomp builds the consumer decomposition.
func (sc Scenario) consDecomp() (*decomp.Decomposition, error) {
	return decomp.New(sc.ConsKind, sc.domainBox(), sc.ConsGrid, sc.ConsBlock)
}

// varNames returns the variable names the scenario couples.
func (sc Scenario) varNames() []string {
	names := []string{"u", "w"}
	return names[:sc.Vars]
}

// fill is the deterministic content of one cell of a variable at a
// version: a pure function of the scenario seed and the coordinates, so
// the reference model and the real producers agree by construction and a
// restaged block carries identical bytes.
func (sc Scenario) fill(v string, version int, p []int) float64 {
	h := sc.Seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(v); i++ {
		h = splitmix64(h ^ uint64(v[i]))
	}
	h = splitmix64(h ^ uint64(uint32(version)))
	for _, x := range p {
		h = splitmix64(h ^ uint64(uint32(x)))
	}
	// Keep the value integral so float64 equality is exact.
	return float64(h % (1 << 30))
}

// fillRegion materializes a region's data row-major.
func (sc Scenario) fillRegion(v string, version int, region geometry.BBox) []float64 {
	data := make([]float64, region.Volume())
	i := 0
	region.Each(func(p geometry.Point) {
		data[i] = sc.fill(v, version, p)
		i++
	})
	return data
}

// Validate checks the scenario's internal consistency: constructible
// decompositions, task counts that fit the machine, and mode/policy
// pairings the framework defines.
func (sc Scenario) Validate() error {
	if sc.Nodes < 1 || sc.CoresPerNode < 1 {
		return fmt.Errorf("scenario: machine %dx%d", sc.Nodes, sc.CoresPerNode)
	}
	if len(sc.Domain) < 1 || len(sc.Domain) > 3 {
		return fmt.Errorf("scenario: domain rank %d", len(sc.Domain))
	}
	for d, ext := range sc.Domain {
		if ext < 1 {
			return fmt.Errorf("scenario: domain[%d] = %d", d, ext)
		}
	}
	if _, err := sfc.ForDomain(sc.Curve, sc.Domain); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	prod, err := sc.prodDecomp()
	if err != nil {
		return err
	}
	cons, err := sc.consDecomp()
	if err != nil {
		return err
	}
	cores := sc.Nodes * sc.CoresPerNode
	np, nc := prod.NumTasks(), cons.NumTasks()
	if sc.Sequential {
		if np > cores || nc > cores {
			return fmt.Errorf("scenario: %d/%d tasks exceed %d cores", np, nc, cores)
		}
	} else if np+nc > cores {
		return fmt.Errorf("scenario: %d tasks exceed %d cores", np+nc, cores)
	}
	if sc.Vars < 1 || sc.Vars > 2 {
		return fmt.Errorf("scenario: vars = %d", sc.Vars)
	}
	if sc.Ghost < 0 || sc.Versions < 1 {
		return fmt.Errorf("scenario: negative tuning field")
	}
	switch sc.Mapping {
	case ServerDataCentric:
		if sc.Sequential {
			return fmt.Errorf("scenario: server-data-centric maps concurrent bundles only")
		}
	case ClientDataCentric:
		if !sc.Sequential {
			return fmt.Errorf("scenario: client-data-centric maps sequential consumers only")
		}
	case Consecutive, RoundRobin:
	default:
		return fmt.Errorf("scenario: unknown mapping %d", int(sc.Mapping))
	}
	if sc.Restage && (!sc.Sequential || sc.Versions != 1) {
		return fmt.Errorf("scenario: restage requires sequential single-version coupling")
	}
	if sc.Kill < 0 || sc.Kill > sc.Nodes {
		return fmt.Errorf("scenario: kill = %d with %d nodes", sc.Kill, sc.Nodes)
	}
	if sc.Kill != 0 {
		if !sc.Sequential || sc.Versions != 1 {
			return fmt.Errorf("scenario: kill requires sequential single-version coupling")
		}
		if sc.Nodes < 2 {
			return fmt.Errorf("scenario: kill needs a surviving node")
		}
		if sc.Restage {
			return fmt.Errorf("scenario: kill and restage are exclusive")
		}
	}
	if sc.Faults != "" && sc.Retry < 2 {
		return fmt.Errorf("scenario: fault plan without a retry budget")
	}
	if sc.Stream {
		if !sc.Sequential || sc.Versions != 1 {
			return fmt.Errorf("scenario: streaming requires sequential single-version coupling")
		}
		if sc.Vars != 1 {
			return fmt.Errorf("scenario: streaming couples one stream variable")
		}
		if sc.Restage {
			return fmt.Errorf("scenario: streaming excludes restage")
		}
		if sc.Mapping != Consecutive && sc.Mapping != RoundRobin {
			return fmt.Errorf("scenario: streaming consumers subscribe before data exists; data-centric mapping undefined")
		}
		if sc.Rounds < 1 || sc.MaxLag < 1 {
			return fmt.Errorf("scenario: streaming rounds=%d maxlag=%d", sc.Rounds, sc.MaxLag)
		}
		if sc.ConsumeEvery < 1 {
			return fmt.Errorf("scenario: consume-every = %d", sc.ConsumeEvery)
		}
		if sc.ConsumeEvery > 1 && !sc.Drop {
			return fmt.Errorf("scenario: a lagging lock-step consumer deadlocks a backpressure producer; stride needs drop-oldest")
		}
		if sc.Resub != 0 && (!sc.Drop || sc.Resub < 1 || sc.Resub >= sc.Rounds) {
			return fmt.Errorf("scenario: resub = %d needs drop-oldest and 1 <= resub < rounds", sc.Resub)
		}
		if sc.Kill != 0 && !sc.Drop {
			return fmt.Errorf("scenario: mid-stream kill runs lock-step (drop-oldest) only")
		}
	} else if sc.Drop || sc.Rounds != 0 || sc.MaxLag != 0 || sc.ConsumeEvery != 0 || sc.Resub != 0 {
		return fmt.Errorf("scenario: streaming fields set without Stream")
	}
	return nil
}

// rng is a splitmix64 sequence; the package avoids math/rand so scenario
// derivation is stable across Go releases.
type rng struct{ s uint64 }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) next() uint64 {
	r.s = splitmix64(r.s)
	return r.s
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns one of the given ints.
func (r *rng) pick(vals ...int) int { return vals[r.intn(len(vals))] }

// Generate derives a valid scenario from a seed. The derivation is pure:
// the same seed always yields the same scenario.
func Generate(seed uint64) Scenario {
	r := &rng{s: seed ^ 0xc0d5c0d5c0d5c0d5}
	for attempt := 0; attempt < 100; attempt++ {
		sc := generate(r, seed)
		if sc.Validate() == nil {
			return sc
		}
	}
	// Pathological seed: fall back to the smallest interesting scenario.
	return Scenario{
		Seed: seed, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
		ProdKind: decomp.Blocked, ProdGrid: []int{2},
		ConsKind: decomp.Blocked, ConsGrid: []int{2},
		Vars: 1, Versions: 1, Mapping: Consecutive, Staged: true,
	}
}

// generateStreaming derives a valid streaming scenario from a seed: a
// sequential coupling whose producers publish a bounded-lag stream of
// versions instead of lock-step iterations. Like Generate the derivation
// is pure, and the two generators draw from distinct sequences so the
// existing sweep seeds keep their scenarios.
func generateStreaming(seed uint64) Scenario {
	r := &rng{s: seed ^ 0x57bea315c0d5f10d}
	for attempt := 0; attempt < 100; attempt++ {
		sc := generate(r, seed)
		streamize(r, &sc)
		if sc.Validate() == nil {
			return sc
		}
	}
	// Pathological seed: the smallest interesting streaming scenario.
	return Scenario{
		Seed: seed, Nodes: 2, CoresPerNode: 2, Domain: []int{8},
		ProdKind: decomp.Blocked, ProdGrid: []int{2},
		ConsKind: decomp.Blocked, ConsGrid: []int{2},
		Vars: 1, Versions: 1, Mapping: Consecutive, Sequential: true,
		Stream: true, Rounds: 3, MaxLag: 2, ConsumeEvery: 1,
	}
}

// streamize forces a candidate into streaming shape: sequential
// single-version coupling of one variable, plus the stream dimensions
// (rounds, lag bound, policy, consume stride, mid-stream resubscribe).
func streamize(r *rng, sc *Scenario) {
	sc.Stream = true
	sc.Sequential = true
	sc.Versions = 1
	sc.Vars = 1
	sc.Restage = false
	if sc.Mapping != Consecutive && sc.Mapping != RoundRobin {
		sc.Mapping = Policy(r.pick(int(Consecutive), int(RoundRobin)))
	}
	sc.Rounds = 2 + r.intn(5)
	sc.MaxLag = 1 + r.intn(3)
	sc.Drop = r.intn(2) == 0
	sc.ConsumeEvery = 1
	if sc.Drop {
		sc.ConsumeEvery = r.pick(1, 1, 2, 3)
		if sc.Rounds >= 3 && r.intn(3) == 0 {
			sc.Resub = 1 + r.intn(sc.Rounds-1)
		}
	} else if sc.Kill != 0 {
		sc.Kill = 0 // mid-stream kill runs lock-step (drop-oldest) only
	}
}

// The pinned families: a draw of Generate or generateStreaming forced into
// the shape one conformance sweep needs, from a seed range of its own.

// GenerateFaulty pins a recoverable fault plan and a retry budget.
func GenerateFaulty(seed uint64) Scenario {
	sc := Generate(1000 + seed)
	sc.Retry = 4
	if sc.Faults == "" {
		sc.Faults = `{"seed": 7, "rules": [{"op": "read", "mode": "drop", "prob": 0.3, "max": 3}, {"op": "call", "mode": "error", "prob": 0.1, "max": 3}]}`
	}
	return sc
}

// GenerateElastic pins the loss of a node after the first get round.
func GenerateElastic(seed uint64) Scenario {
	sc := lockStep(Generate(2000 + seed))
	sc.Kill = 1 + int(seed)%sc.Nodes
	return sc
}

// GenerateStreamingKills pins a mid-stream node loss on every even seed
// whose stream runs lock-step (drop-oldest) on two or more nodes.
func GenerateStreamingKills(seed uint64) Scenario {
	sc := generateStreaming(3000 + seed)
	if seed%2 == 0 && sc.Drop && sc.Nodes > 1 {
		sc.Kill = 1 + int(seed)%sc.Nodes
	}
	return sc
}

// lockStep forces sequential single-version coupling on two or more nodes.
func lockStep(sc Scenario) Scenario {
	sc.Sequential, sc.Versions, sc.Restage = true, 1, false
	if sc.Mapping == ServerDataCentric {
		sc.Mapping = Consecutive
	}
	sc.Nodes = max(sc.Nodes, 2)
	return sc
}

// generate draws one candidate scenario (possibly invalid: the caller
// retries until Validate accepts).
func generate(r *rng, seed uint64) Scenario {
	dim := 1 + r.intn(3)
	sc := Scenario{
		Seed:         seed,
		Nodes:        1 + r.intn(5),
		CoresPerNode: 1 + r.intn(4),
		Domain:       make([]int, dim),
		Vars:         1,
		Versions:     1 + r.intn(3),
	}
	for d := range sc.Domain {
		sc.Domain[d] = 3 + r.intn(10)
	}
	if r.intn(4) == 0 {
		sc.Vars = 2
	}
	// Linearization policy: mostly the default Hilbert curve, with the
	// ablation alternatives mixed into the sweep.
	switch r.intn(5) {
	case 0:
		sc.Curve = sfc.CurveMorton
	case 1:
		sc.Curve = sfc.CurveRowMajor
	case 2:
		sc.Curve = sfc.CurveHilbert
	}
	sc.ProdKind, sc.ProdGrid, sc.ProdBlock = genDecomp(r, sc.Domain)
	sc.ConsKind, sc.ConsGrid, sc.ConsBlock = genDecomp(r, sc.Domain)
	sc.Ghost = r.pick(0, 0, 1, 2)
	sc.Sequential = r.intn(2) == 0
	if sc.Sequential {
		sc.Mapping = Policy(r.pick(int(Consecutive), int(RoundRobin), int(ClientDataCentric)))
		sc.Restage = sc.Versions == 1 && r.intn(4) == 0
		if sc.Nodes > 1 && sc.Versions == 1 && !sc.Restage && r.intn(2) == 0 {
			sc.Kill = 1 + r.intn(sc.Nodes)
		}
		if sc.Nodes > 1 && sc.Versions == 1 && !sc.Restage && sc.Kill == 0 {
			r.intn(4) // a retired draw, kept so every seed draws the scenario it always drew
		}
	} else {
		sc.Mapping = Policy(r.pick(int(Consecutive), int(RoundRobin), int(ServerDataCentric)))
		sc.Staged = r.intn(2) == 0
	}
	switch r.intn(3) {
	case 0:
		sc.Retry = 4
		sc.Faults = genFaultPlan(r, sc.Retry)
	case 1:
		sc.Retry = 3
	}
	return sc
}

// genDecomp draws one decomposition spec over the domain.
func genDecomp(r *rng, domain []int) (decomp.Kind, []int, []int) {
	grid := make([]int, len(domain))
	for d, ext := range domain {
		max := 3
		if ext < max {
			max = ext
		}
		grid[d] = 1 + r.intn(max)
	}
	switch r.intn(4) {
	case 0:
		block := make([]int, len(domain))
		for d := range block {
			block[d] = 1 + r.intn(2)
		}
		return decomp.BlockCyclic, grid, block
	case 1:
		return decomp.Cyclic, grid, nil
	default:
		return decomp.Blocked, grid, nil
	}
}

// genFaultPlan emits a recoverable fault-plan JSON: every error rule's
// fire budget (max fires, or dark-window width) stays strictly below the
// retry attempt budget, so no transfer or control RPC can exhaust its
// retries — results must still be byte-identical to a fault-free run.
func genFaultPlan(r *rng, retryAttempts int) string {
	seed := r.next() % 10000
	budget := retryAttempts - 1
	var rules []string
	switch r.intn(3) {
	case 0:
		rules = append(rules, fmt.Sprintf(
			`{"op": "read", "mode": "drop", "prob": 0.2, "max": %d}`, budget))
	case 1:
		from := r.intn(4)
		rules = append(rules, fmt.Sprintf(
			`{"op": "read", "mode": "error", "from_op": %d, "to_op": %d}`, from, from+budget))
	default:
		rules = append(rules, fmt.Sprintf(
			`{"op": "call", "mode": "error", "prob": 0.15, "max": %d}`, budget))
	}
	if r.intn(2) == 0 {
		rules = append(rules, `{"op": "read", "mode": "delay", "delay_us": 5, "prob": 0.2, "max": 50}`)
	}
	return fmt.Sprintf(`{"seed": %d, "rules": [%s]}`, seed, strings.Join(rules, ", "))
}

// kindLiteral renders a decomp.Kind as the Go expression naming it.
func kindLiteral(k decomp.Kind) string {
	switch k {
	case decomp.Blocked:
		return "decomp.Blocked"
	case decomp.Cyclic:
		return "decomp.Cyclic"
	case decomp.BlockCyclic:
		return "decomp.BlockCyclic"
	default:
		return fmt.Sprintf("decomp.Kind(%d)", int(k))
	}
}

// policyLiteral renders a Policy as the Go expression naming it.
func policyLiteral(p Policy) string {
	switch p {
	case Consecutive:
		return "conformance.Consecutive"
	case RoundRobin:
		return "conformance.RoundRobin"
	case ServerDataCentric:
		return "conformance.ServerDataCentric"
	case ClientDataCentric:
		return "conformance.ClientDataCentric"
	default:
		return fmt.Sprintf("conformance.Policy(%d)", int(p))
	}
}

func intsLiteral(v []int) string {
	if v == nil {
		return "nil"
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "[]int{" + strings.Join(parts, ", ") + "}"
}

// GoLiteral renders the scenario as a runnable Go composite literal
// (imports: internal/conformance, internal/decomp). Pasting it into a test and
// calling conformance.Run reproduces the exact failing run.
func (sc Scenario) GoLiteral() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance.Scenario{\n")
	fmt.Fprintf(&b, "\tSeed: %#x, Nodes: %d, CoresPerNode: %d,\n", sc.Seed, sc.Nodes, sc.CoresPerNode)
	fmt.Fprintf(&b, "\tDomain: %s, Sequential: %v,\n", intsLiteral(sc.Domain), sc.Sequential)
	fmt.Fprintf(&b, "\tProdKind: %s, ProdGrid: %s, ProdBlock: %s,\n",
		kindLiteral(sc.ProdKind), intsLiteral(sc.ProdGrid), intsLiteral(sc.ProdBlock))
	fmt.Fprintf(&b, "\tConsKind: %s, ConsGrid: %s, ConsBlock: %s,\n",
		kindLiteral(sc.ConsKind), intsLiteral(sc.ConsGrid), intsLiteral(sc.ConsBlock))
	fmt.Fprintf(&b, "\tVars: %d, Ghost: %d, Versions: %d, Mapping: %s,\n",
		sc.Vars, sc.Ghost, sc.Versions, policyLiteral(sc.Mapping))
	fmt.Fprintf(&b, "\tStaged: %v, Restage: %v,\n", sc.Staged, sc.Restage)
	if sc.Curve != "" {
		fmt.Fprintf(&b, "\tCurve: %q,\n", sc.Curve)
	}
	if sc.Kill != 0 {
		fmt.Fprintf(&b, "\tKill: %d,\n", sc.Kill)
	}
	if sc.Stream {
		fmt.Fprintf(&b, "\tStream: true, Drop: %v, Rounds: %d, MaxLag: %d, ConsumeEvery: %d, Resub: %d,\n",
			sc.Drop, sc.Rounds, sc.MaxLag, sc.ConsumeEvery, sc.Resub)
	}
	fmt.Fprintf(&b, "\tFaults: %q, Retry: %d,\n", sc.Faults, sc.Retry)
	fmt.Fprintf(&b, "}")
	return b.String()
}

// DAG renders the scenario as a testdata/*.dag-style repro: a run
// description the framework's text parser reads back — the domain, both
// decompositions and the coupling — preceded by comment lines carrying
// the rest of the scenario.
func (sc Scenario) DAG() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# conformance repro (seed %#x)\n", sc.Seed)
	fmt.Fprintf(&b, "# machine: %d nodes x %d cores, ghost=%d\n", sc.Nodes, sc.CoresPerNode, sc.Ghost)
	fmt.Fprintf(&b, "# vars=%d versions=%d mapping=%s staged=%v restage=%v\n",
		sc.Vars, sc.Versions, sc.Mapping, sc.Staged, sc.Restage)
	if sc.Curve != "" {
		fmt.Fprintf(&b, "# curve: %s\n", sc.Curve)
	}
	if sc.Kill != 0 {
		fmt.Fprintf(&b, "# elastic: node %d lost and replaced after round 0\n", sc.Kill-1)
	}
	if sc.Stream {
		policy := "backpressure"
		if sc.Drop {
			policy = "drop-oldest"
		}
		fmt.Fprintf(&b, "# stream: rounds=%d maxlag=%d policy=%s consume-every=%d resub=%d\n",
			sc.Rounds, sc.MaxLag, policy, sc.ConsumeEvery, sc.Resub)
	}
	if sc.Faults != "" {
		fmt.Fprintf(&b, "# faults: %s (retry %d)\n", sc.Faults, sc.Retry)
	}
	d := workflow.DAG{Domain: sc.Domain, Apps: []int{1, 2}, Decomps: map[int]workflow.DecompSpec{
		1: decompSpec(sc.ProdKind, sc.ProdGrid, sc.ProdBlock),
		2: decompSpec(sc.ConsKind, sc.ConsGrid, sc.ConsBlock),
	}}
	if sc.Sequential && !sc.Stream {
		d.Edges = [][2]int{{1, 2}}
	} else {
		// Concurrent bundle — streaming producers and consumers run as one
		// group, coupled through cursors instead of the DAG edge.
		d.Bundles = [][]int{{1, 2}}
	}
	return b.String() + d.String()
}

// decompSpec is one DECOMP directive; only block-cyclic carries a BLOCK
// clause, the one kind that reads it.
func decompSpec(kind decomp.Kind, grid, block []int) workflow.DecompSpec {
	if kind != decomp.BlockCyclic {
		block = nil
	}
	return workflow.DecompSpec{Kind: kind, Grid: grid, Block: block}
}

// clone deep-copies the scenario (the shrinker mutates candidate slices).
func (sc Scenario) clone() Scenario {
	cp := sc
	cp.Domain = append([]int(nil), sc.Domain...)
	cp.ProdGrid = append([]int(nil), sc.ProdGrid...)
	cp.ConsGrid = append([]int(nil), sc.ConsGrid...)
	if sc.ProdBlock != nil {
		cp.ProdBlock = append([]int(nil), sc.ProdBlock...)
	}
	if sc.ConsBlock != nil {
		cp.ConsBlock = append([]int(nil), sc.ConsBlock...)
	}
	return cp
}
