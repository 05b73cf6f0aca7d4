// Package remap closes the ROADMAP's adaptive re-mapping loop (DESIGN
// §5j): between coupled iterations a planner consumes the observed
// per-(src,dst)/per-medium flow matrix (obs.BuildFlowMatrix over the
// fabric's flow log), scores the current block→core mapping against the
// inter-node coupled bytes it actually moved, and emits a migration plan.
// The executor applies the plan through the one block move the elastic
// plane already trusts — membership.Restage from the put ledger: withdrawn
// at the old owner, put at the new. The discard bumps the variable's
// schedule generation, so the next get of a moved variable re-queries the
// lookup service and converges on the new placement with no correctness
// change.
package remap

import (
	"fmt"
	"sort"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/membership"
	"github.com/insitu/cods/internal/obs"
)

// Registry instruments for the remap plane: how often plans are computed
// and how long that takes (the planner runs on the coupling path between
// iterations; TestPlaneCosts/remap-planner in internal/transport/tcpnet
// holds a pass to no wire traffic and a fixed number of allocations), how
// many moves were planned and how many blocks actually migrated.
var (
	obsPlans   = obs.C("remap.plans")
	obsPlanNs  = obs.H("remap.plan_ns", obs.DefaultLatencyBounds())
	obsPlanned = obs.C("remap.moves.planned")
	obsMoved   = obs.C("remap.moves.applied")
)

// Block is one staged block of the current mapping: what the planner
// scores and the executor migrates. It mirrors the put ledger's record
// minus the payload.
type Block struct {
	Var     string
	Version int
	Region  geometry.BBox
	Owner   cluster.CoreID
}

// key is the ledger-compatible identity of a block.
func (b Block) key() string {
	return fmt.Sprintf("%s|%d|%s|%d", b.Var, b.Version, b.Region.String(), b.Owner)
}

// Move relocates one block to a new owner core.
type Move struct {
	Block Block
	To    cluster.CoreID
	// Gain is the predicted inter-node byte reduction of this move under
	// a repeat of the observed traffic: the destination's share becomes
	// node-local while the old node's local share moves onto the network.
	Gain int64
}

// Plan is one remap round's migration set with its traffic score.
type Plan struct {
	Moves []Move
	// StaticNetBytes is the observed inter-node coupled byte volume under
	// the current mapping; PlannedNetBytes the predicted volume under the
	// planned one, assuming the traffic pattern repeats.
	StaticNetBytes  int64
	PlannedNetBytes int64
}

// Options tune the planner.
type Options struct {
	// MinGain is the fractional inter-node byte reduction below which
	// Propose keeps the static mapping (an empty plan). Zero accepts any
	// strictly positive gain.
	MinGain float64
	// MaxMoves bounds the migrations per round, largest gains first
	// (0 = unbounded).
	MaxMoves int
}

// Propose scores the current block→core mapping against the observed flow
// matrix and plans migrations. The matrix's inter-app cells give who pulled
// how much from whom at node granularity; each source node's outgoing
// volume is apportioned over the blocks stored there by block volume, and a
// block whose heaviest reader is a remote node is planned to move next to
// that reader (same core slot on the reader's node). The result is
// deterministic: blocks are visited in ledger order and ties break toward
// the lower node id.
func Propose(m *cluster.Machine, fm obs.FlowMatrix, blocks []Block, opts Options) Plan {
	start := time.Now()
	defer func() {
		obsPlans.Inc()
		obsPlanNs.Observe(time.Since(start).Nanoseconds())
	}()

	numNodes := m.NumNodes()
	// traffic[src][dst]: observed inter-app bytes pulled by dst's tasks
	// from blocks stored on src (both media — the src==dst diagonal is the
	// node-local volume a move away must be charged for).
	traffic := make([][]int64, numNodes)
	for i := range traffic {
		traffic[i] = make([]int64, numNodes)
	}
	var static int64
	for _, c := range fm.Cells {
		if c.Class != cluster.InterApp.String() {
			continue
		}
		if c.Src < 0 || c.Src >= numNodes || c.Dst < 0 || c.Dst >= numNodes {
			continue
		}
		traffic[c.Src][c.Dst] += c.Bytes
		if c.Src != c.Dst {
			static += c.Bytes
		}
	}
	plan := Plan{StaticNetBytes: static, PlannedNetBytes: static}

	// Apportionment denominator: staged volume per node.
	volByNode := make([]int64, numNodes)
	for _, b := range blocks {
		volByNode[m.NodeOf(b.Owner)] += b.Region.Volume()
	}

	sorted := append([]Block(nil), blocks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key() < sorted[j].key() })

	var cands []Move
	for _, b := range sorted {
		src := int(m.NodeOf(b.Owner))
		vol := b.Region.Volume()
		if volByNode[src] == 0 || vol == 0 {
			continue
		}
		// share is the volume node dst pulled of this block: the source
		// node's outgoing bytes apportioned by block volume.
		share := func(dst int) int64 { return traffic[src][dst] * vol / volByNode[src] }
		best, bestBytes := src, int64(-1)
		for dst := 0; dst < numNodes; dst++ {
			if dst != src && share(dst) > bestBytes {
				best, bestBytes = dst, share(dst)
			}
		}
		gain := bestBytes - share(src)
		if best == src || gain <= 0 {
			continue
		}
		slot := int(b.Owner) % m.CoresPerNode()
		cands = append(cands, Move{
			Block: b,
			To:    m.CoreOn(cluster.NodeID(best), slot),
			Gain:  gain,
		})
	}
	// Largest gains first; ties keep ledger order (stable sort).
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Gain > cands[j].Gain })
	if opts.MaxMoves > 0 && len(cands) > opts.MaxMoves {
		cands = cands[:opts.MaxMoves]
	}
	var reduction int64
	for _, mv := range cands {
		reduction += mv.Gain
	}
	if static == 0 || reduction <= 0 {
		return plan // keep the static mapping
	}
	if float64(reduction)/float64(static) < opts.MinGain {
		return plan
	}
	plan.Moves = cands
	plan.PlannedNetBytes = static - reduction
	obsPlanned.Add(int64(len(cands)))
	return plan
}

// Apply executes a migration plan: every moved block is re-staged
// byte-identically at its new owner from the put ledger's record
// (membership.Restage — the location record moves with the block, and the
// discard at the old owner bumps the variable's schedule generation, so the
// next get of a moved variable re-queries the lookup service). Returns the
// number of blocks migrated. The space's put recorder must be the given ledger, so the
// restage re-records itself.
func Apply(sp *cods.Space, ledger *membership.Ledger, plan Plan, phase string) (int, error) {
	if len(plan.Moves) == 0 {
		return 0, nil
	}
	byKey := make(map[string]membership.Block)
	for _, b := range ledger.Blocks() {
		byKey[Block{Var: b.Var, Version: b.Version, Region: b.Region, Owner: b.Owner}.key()] = b
	}
	moved := 0
	for _, mv := range plan.Moves {
		b := mv.Block
		if mv.To == b.Owner {
			continue
		}
		rec, ok := byKey[b.key()]
		if !ok {
			return moved, fmt.Errorf("remap: block %q v%d %v at core %d not in the put ledger",
				b.Var, b.Version, b.Region, b.Owner)
		}
		if err := membership.Restage(sp, rec, mv.To, phase); err != nil {
			return moved, fmt.Errorf("remap: %w", err)
		}
		moved++
		obsMoved.Inc()
	}
	return moved, nil
}

// LedgerBlocks converts a put ledger's snapshot into the planner's block
// form (the payloads stay behind in the ledger).
func LedgerBlocks(l *membership.Ledger) []Block {
	recs := l.Blocks()
	out := make([]Block, 0, len(recs))
	for _, b := range recs {
		out = append(out, Block{Var: b.Var, Version: b.Version, Region: b.Region, Owner: b.Owner})
	}
	return out
}
