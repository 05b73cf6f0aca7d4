package conformance

import (
	"fmt"
	"slices"
	"sort"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/sfc"
)

// flowKey aggregates flows by (source node, destination node).
type flowKey struct {
	src, dst cluster.NodeID
}

// predictor accumulates, from the reference model alone, the
// inter-application traffic the real run must produce: per-medium byte
// totals and the per-(source node, destination node) aggregation.
type predictor struct {
	m         *cluster.Machine
	flows     map[flowKey]int64
	perMedium [2]int64
	// voided names the variables whose cached schedules the extra round
	// (a restage or a node loss) voided: it re-staged one of
	// their blocks, and the discard bumped the variable's schedule
	// generation.
	voided map[string]bool
}

func newPredictor(m *cluster.Machine) *predictor {
	return &predictor{m: m, flows: make(map[flowKey]int64), voided: make(map[string]bool)}
}

// voidOwned marks every variable of the scenario with a model block whose
// owner the extra round is about to re-stage.
func (p *predictor) voidOwned(sc Scenario, model *refModel, moves func(owner cluster.CoreID) bool) {
	for _, v := range sc.varNames() {
		for version := range model.vars[v] {
			for _, b := range model.blocks(v, version) {
				if moves(cluster.CoreID(b.Owner)) {
					p.voided[v] = true
				}
			}
		}
	}
}

// addGet predicts the transfers of one consumer get from the model's
// current block ownership: every stored block overlapping the region
// contributes its intersection volume, pulled from the block owner's node
// to the consumer core's node — one read per stored block, which is what a
// schedule of the real pipeline holds.
func (p *predictor) addGet(model *refModel, v string, version int, region geometry.BBox, consCore cluster.CoreID) {
	dst := p.m.NodeOf(consCore)
	for _, b := range model.Owners(v, version, region) {
		n := IntersectionVolume(b.Region, region) * cods.ElemSize
		src := p.m.NodeOf(cluster.CoreID(b.Owner))
		p.flows[flowKey{src: src, dst: dst}] += n
		if src == dst {
			p.perMedium[cluster.SharedMemory] += n
		} else {
			p.perMedium[cluster.Network] += n
		}
	}
}

// checkOwners asserts that, for every region a consumer will retrieve and
// every version below versions, a lookup query answers with exactly the
// (owner, region) set the model predicts, in the same deterministic order.
// Versions the model no longer holds (retired stream versions) must answer
// with nothing — their records are gone from the DHT, not merely ignored.
// lost names a node whose DHT table was just lost (-1: none): the model's
// set is then narrowed to the blocks a surviving table asked by the query
// still records.
func checkOwners(sc Scenario, machine *cluster.Machine, space *cods.Space,
	cons *decomp.Decomposition, model *refModel, versions, lost int) error {
	cl := space.Lookup().ClientAt(machine.CoreOn(0, 0))
	for r := 0; r < cons.NumTasks(); r++ {
		for _, region := range getRegions(cons, r, sc.Ghost) {
			for version := 0; version < versions; version++ {
				for _, v := range sc.varNames() {
					entries, err := cl.Query("check", consAppID, v, version, region)
					if err != nil {
						return fmt.Errorf("conformance: lookup %q v%d %v: %w", v, version, region, err)
					}
					want := model.Owners(v, version, region)
					if lost >= 0 {
						want = slices.DeleteFunc(want, func(b refBlock) bool {
							return !recordedBeside(space.Lookup().Curve(), machine.NumNodes(), lost, region, b.Region)
						})
					}
					if len(entries) != len(want) {
						return fmt.Errorf("conformance: lookup %q v%d %v returned %d owners, model predicts %d\n%s",
							v, version, region, len(entries), len(want), sc.GoLiteral())
					}
					for i, e := range entries {
						if int(e.Owner) != want[i].Owner || !e.Region.Equal(want[i].Region) {
							return fmt.Errorf("conformance: lookup %q v%d %v entry %d = owner %d %v, model predicts owner %d %v\n%s",
								v, version, region, i, e.Owner, e.Region, want[i].Owner, want[i].Region, sc.GoLiteral())
						}
					}
				}
			}
		}
	}
	return nil
}

// recordedBeside reports whether a query for region still finds the record
// of block with node lost's table gone: some other node's DHT interval —
// the curve's index space split evenly in node order, the remainder over
// the first nodes — must meet the spans of both. It is the harness's own
// statement of the interval rule, written without internal/dht's code.
func recordedBeside(curve sfc.Linearizer, nodes, lost int, region, block geometry.BBox) bool {
	total, n := curve.Total(), uint64(nodes)
	lo := func(node int) uint64 { return uint64(node)*(total/n) + min(uint64(node), total%n) }
	meets := func(node int, b geometry.BBox) bool {
		for _, span := range curve.Spans(b) {
			if lo(node) < span.End && span.Start < lo(node+1) {
				return true
			}
		}
		return false
	}
	for node := 0; node < nodes; node++ {
		if node != lost && meets(node, region) && meets(node, block) {
			return true
		}
	}
	return false
}

// checkInvariants runs the cross-layer accounting checks after all rounds
// completed. reads is how many gets each consumer made of each of its
// regions of each variable.
func checkInvariants(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	pred *predictor, consumers []*consumer, prodPl, consPl *cluster.Placement,
	prodApp, consApp graph.App, reads int) error {
	if err := checkFlowAccounting(sc, opts, machine, space, pred); err != nil {
		return err
	}

	// 5. The static coupled-traffic analysis agrees with the measured
	// totals for halo-free, restage-free, topology-stable scenarios (its
	// overlap model covers exactly the owned regions, once per variable
	// per version).
	if sc.Ghost == 0 && !sc.Restage && sc.Kill == 0 {
		tr, err := mapping.CoupledTraffic(machine, prodPl, consPl, prodApp, consApp, cods.ElemSize)
		if err != nil {
			return err
		}
		mult := int64(reads * sc.Vars)
		if tr.Shm*mult != pred.perMedium[cluster.SharedMemory] || tr.Network*mult != pred.perMedium[cluster.Network] {
			return fmt.Errorf("conformance: CoupledTraffic predicts shm=%d net=%d (x%d), model predicts shm=%d net=%d\n%s",
				tr.Shm, tr.Network, mult, pred.perMedium[cluster.SharedMemory], pred.perMedium[cluster.Network], sc.GoLiteral())
		}
	}

	// 6. Schedule-cache behavior is exactly as designed — repeated
	// coupling patterns hit, invalidation forces recomputation — and,
	// because check 1 already pinned the bytes, hits provably never
	// changed what was transferred.
	// Ghost expansion can clip two owned pieces to the same region; a
	// schedule is computed once per distinct region per handle, so hits
	// are total gets minus that. An extra round (a restage or a node loss;
	// they are exclusive) re-gets everything: a variable it
	// voided misses once more per distinct region, the others hit.
	var hits, misses, gets, wantMisses int
	for _, c := range consumers {
		hits += c.h.CacheHits
		misses += c.h.CacheMisses
		seen := make(map[string]bool)
		for _, r := range c.regions {
			seen[r.String()] = true
		}
		for _, v := range sc.varNames() {
			gets += len(c.regions) * reads
			wantMisses += len(seen)
			if pred.voided[v] {
				wantMisses += len(seen)
			}
		}
	}
	wantHits := gets - wantMisses
	if hits != wantHits {
		return fmt.Errorf("conformance: schedule cache hits = %d, want %d\n%s",
			hits, wantHits, sc.GoLiteral())
	}
	// A retried get keeps its schedule, so it counts no extra hit, and
	// rebuilds it — an extra miss — only when a discard moved the
	// variable's stamp in between, so under faults misses may only exceed
	// the prediction. Fault-free runs miss exactly once per distinct
	// region.
	if misses != wantMisses && (sc.Faults == "" || misses < wantMisses) {
		return fmt.Errorf("conformance: schedule cache misses = %d, want %d\n%s",
			misses, wantMisses, sc.GoLiteral())
	}
	return nil
}

// checkFlowAccounting runs the placement-independent traffic checks
// (invariants 1-4b), shared by the lock-step rounds and the streaming
// runner: metered inter-app bytes against the model prediction, fabric
// counter reconciliation, intra-app silence, and the per-(src, dst) flow
// aggregation in both the metrics plane and the obs flow matrix.
func checkFlowAccounting(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	pred *predictor) error {
	mx := machine.Metrics()

	// 1. Metered inter-application bytes equal the model-computed
	// intersection volumes, partitioned by medium per the placements.
	for _, md := range []cluster.Medium{cluster.SharedMemory, cluster.Network} {
		if got, want := mx.Bytes(cluster.InterApp, md), pred.perMedium[md]; got != want {
			return fmt.Errorf("conformance: inter-app %s bytes = %d, model predicts %d\n%s",
				md, got, want, sc.GoLiteral())
		}
		// 2. The fabrics' independent medium counters reconcile with the
		// per-class metrics.
		sum := mx.Bytes(cluster.InterApp, md) + mx.Bytes(cluster.IntraApp, md) + mx.Bytes(cluster.Control, md)
		if got := opts.mediumBytes(space, md); got != sum {
			return fmt.Errorf("conformance: fabric %s bytes = %d, metrics classes sum to %d\n%s",
				md, got, sum, sc.GoLiteral())
		}
		// 3. A two-application coupling generates no intra-app traffic.
		if got := mx.Bytes(cluster.IntraApp, md); got != 0 {
			return fmt.Errorf("conformance: unexpected intra-app %s bytes = %d\n%s", md, got, sc.GoLiteral())
		}
	}

	// 4. The per-(source node, destination node) flow aggregation matches
	// the model prediction exactly — this is what catches swapped flow
	// endpoints that leave symmetric totals unchanged.
	got := make(map[flowKey]int64)
	for _, f := range mx.Flows("") {
		if f.Class != cluster.InterApp.String() {
			continue
		}
		got[flowKey{src: f.Src, dst: f.Dst}] += f.Bytes
		wantMd := cluster.Network.String()
		if f.Src == f.Dst {
			wantMd = cluster.SharedMemory.String()
		}
		if f.Medium != wantMd {
			return fmt.Errorf("conformance: flow %d->%d tagged %q, want %q\n%s",
				f.Src, f.Dst, f.Medium, wantMd, sc.GoLiteral())
		}
	}
	if err := compareFlowMaps(got, pred.flows); err != nil {
		return fmt.Errorf("%w\n%s", err, sc.GoLiteral())
	}

	// 4b. The observability plane's flow matrix is a pure regrouping of
	// the same flow log, so folding its inter-app cells back to (src, dst)
	// must reproduce the model prediction too. This pins attribution in
	// the aggregation itself: a cell credited to the wrong node keeps
	// every total intact and is invisible to checks 1-4.
	obsGot := make(map[flowKey]int64)
	for _, c := range obs.BuildFlowMatrix(mx.Flows("")).Cells {
		if c.Class != cluster.InterApp.String() {
			continue
		}
		obsGot[flowKey{src: cluster.NodeID(c.Src), dst: cluster.NodeID(c.Dst)}] += c.Bytes
	}
	if err := compareFlowMaps(obsGot, pred.flows); err != nil {
		return fmt.Errorf("obs flow matrix: %w\n%s", err, sc.GoLiteral())
	}
	return nil
}

// compareFlowMaps diffs two (src node, dst node) -> bytes aggregations.
func compareFlowMaps(got, want map[flowKey]int64) error {
	keys := make(map[flowKey]bool, len(got)+len(want))
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	ordered := make([]flowKey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].src != ordered[j].src {
			return ordered[i].src < ordered[j].src
		}
		return ordered[i].dst < ordered[j].dst
	})
	for _, k := range ordered {
		if got[k] != want[k] {
			return fmt.Errorf("conformance: inter-app flow %d->%d = %d bytes, model predicts %d",
				k.src, k.dst, got[k], want[k])
		}
	}
	return nil
}
