// Package membership implements the elastic cluster layer: serving
// processes (codsnode) register with the driver, hold a TTL lease renewed
// by heartbeat probes, and leave by lease expiry (crash). A lost process is
// replaced in its node's slot, so the DHT interval assignment never changes
// and recovery is one function: Reconcile re-stages the lost node's blocks
// from the put ledger and re-registers every other block's location records
// (some lived in the lost node's table), while in-flight pulls retry. The
// elastic driver, the remap executor and the conformance harness all move a
// ledger block through the same Restage.
package membership

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
)

// Registry instruments. migrated_bytes/migrated_blocks are the migration
// counters the driver report reconciles against the reconciler's result.
var (
	obsJoins       = obs.C("membership.joins")
	obsExpirations = obs.C("membership.expirations")
	obsRenewals    = obs.C("membership.leases_renewed")
	obsMigBytes    = obs.C("membership.migrated_bytes")
	obsMigBlocks   = obs.C("membership.migrated_blocks")
	obsReinserts   = obs.C("membership.reinserted_records")
)

// State is the lifecycle state of a member.
type State int

const (
	// Alive: the lease is current.
	Alive State = iota
	// Expired: the lease ran out without renewal (a crash).
	Expired
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Member is one registered serving process.
type Member struct {
	Node        cluster.NodeID `json:"node"`
	Addr        string         `json:"addr"`
	Incarnation uint64         `json:"incarnation"`
	State       string         `json:"state"`
	Renewals    int64          `json:"renewals"`
	// Expires is when the current lease runs out (meaningful while alive).
	Expires time.Time `json:"expires"`
}

// member is the internal mutable record behind a Member snapshot.
type member struct {
	addr        string
	incarnation uint64
	state       State
	renewals    int64
	expires     time.Time
}

// Registry tracks the cluster's member set under TTL leases. The clock is
// injectable so lease expiry is testable without sleeping; every state
// transition is counted in the obs registry and reported to the optional
// event hook (the driver turns events into trace spans).
type Registry struct {
	ttl time.Duration

	mu      sync.Mutex
	now     func() time.Time
	members map[cluster.NodeID]*member
	onEvent func(event string, node cluster.NodeID)
}

// NewRegistry creates a registry granting leases of the given TTL.
func NewRegistry(ttl time.Duration) *Registry {
	return &Registry{
		ttl:     ttl,
		now:     time.Now,
		members: make(map[cluster.NodeID]*member),
	}
}

// TTL returns the lease duration.
func (r *Registry) TTL() time.Duration { return r.ttl }

// SetClock injects the time source (tests drive expiry with a fake clock).
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// SetEventHook installs a callback invoked (outside the registry lock is
// NOT guaranteed — keep it cheap) on every membership event: "join",
// "renew", "expire".
func (r *Registry) SetEventHook(fn func(event string, node cluster.NodeID)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvent = fn
}

func (r *Registry) emit(event string, node cluster.NodeID) {
	if r.onEvent != nil {
		r.onEvent(event, node)
	}
}

// Join registers a serving process for a node and grants it a fresh
// lease. A replacement for a node seen before must carry a strictly
// higher incarnation — a join that replays a dead process's identity is
// rejected, so a partitioned old process cannot reclaim its slot.
func (r *Registry) Join(node cluster.NodeID, addr string, incarnation uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[node]; ok {
		if incarnation <= m.incarnation {
			return fmt.Errorf("membership: node %d join with incarnation %d, already saw %d",
				node, incarnation, m.incarnation)
		}
	}
	r.members[node] = &member{
		addr:        addr,
		incarnation: incarnation,
		state:       Alive,
		expires:     r.now().Add(r.ttl),
	}
	obsJoins.Inc()
	r.emit("join", node)
	return nil
}

// Renew extends a member's lease. The renewal must carry the incarnation
// the lease was granted to: a heartbeat from a superseded process does
// not keep its successor's slot alive, and a member that already expired
// must re-join instead of renewing.
func (r *Registry) Renew(node cluster.NodeID, incarnation uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[node]
	if !ok {
		return fmt.Errorf("membership: renew for unknown node %d", node)
	}
	if m.incarnation != incarnation {
		return fmt.Errorf("membership: node %d renew with incarnation %d, lease held by %d",
			node, incarnation, m.incarnation)
	}
	if m.state != Alive {
		return fmt.Errorf("membership: node %d renew while %s", node, m.state)
	}
	m.expires = r.now().Add(r.ttl)
	m.renewals++
	obsRenewals.Inc()
	r.emit("renew", node)
	return nil
}

// Sweep transitions every alive member whose lease ran out to Expired and
// returns the nodes that expired in this pass. The reconcile loop calls
// it each tick: a non-empty result is a topology change to converge on.
func (r *Registry) Sweep() []cluster.NodeID {
	if mutate.Enabled(mutate.LeaseExpiryIgnored) {
		// Seeded defect: every lease looks live forever, so a crashed
		// node is never expired and the reconcile loop never runs.
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	var expired []cluster.NodeID
	for node, m := range r.members {
		if m.state == Alive && now.After(m.expires) {
			m.state = Expired
			expired = append(expired, node)
			obsExpirations.Inc()
			r.emit("expire", node)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	return expired
}

// Incarnation returns the incarnation currently holding a node's slot
// (0 when the node never joined).
func (r *Registry) Incarnation(node cluster.NodeID) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[node]; ok {
		return m.incarnation
	}
	return 0
}

// Members returns a snapshot of every registered member, ascending by
// node — the payload of the obs /members endpoint.
func (r *Registry) Members() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Member, 0, len(r.members))
	for node, m := range r.members {
		out = append(out, Member{
			Node:        node,
			Addr:        m.addr,
			Incarnation: m.incarnation,
			State:       m.state.String(),
			Renewals:    m.renewals,
			Expires:     m.expires,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Block is one ledger record of a sequentially staged block: enough to
// re-stage it byte-identically, in the lookup namespace of the application
// that staged it, at the same owner or another.
type Block struct {
	Var     string
	Version int
	Region  geometry.BBox
	Owner   cluster.CoreID
	App     int
	Data    []float64
}

// Bytes returns the staged payload size of the block.
func (b Block) Bytes() int64 { return int64(len(b.Data)) * 8 }

func blockKey(v string, version int, region geometry.BBox, owner cluster.CoreID) string {
	return fmt.Sprintf("%s|%d|%s|%d", v, version, region.String(), owner)
}

// Ledger records every sequentially staged block in the driver's memory —
// the durable side channel the reconcile loop re-stages from when an
// owner crashes without handing its buffers off. It implements
// cods.PutRecorder.
type Ledger struct {
	mu     sync.Mutex
	blocks map[string]Block
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{blocks: make(map[string]Block)}
}

// RecordPut records a staged block (cods.PutRecorder). The block keeps the
// put's data slice, which the space owns: the ledger holds no second copy.
func (l *Ledger) RecordPut(v string, version int, region geometry.BBox, owner cluster.CoreID, app int, data []float64) {
	b := Block{Var: v, Version: version, Region: region.Clone(), Owner: owner, App: app, Data: data}
	l.mu.Lock()
	l.blocks[blockKey(v, version, region, owner)] = b
	l.mu.Unlock()
}

// RecordDiscard drops a block's record (cods.PutRecorder).
func (l *Ledger) RecordDiscard(v string, version int, region geometry.BBox, owner cluster.CoreID) {
	l.mu.Lock()
	delete(l.blocks, blockKey(v, version, region, owner))
	l.mu.Unlock()
}

// Blocks returns a snapshot of every recorded block, sorted by key so
// convergence order is deterministic.
func (l *Ledger) Blocks() []Block {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.blocks))
	for k := range l.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Block, 0, len(keys))
	for _, k := range keys {
		out = append(out, l.blocks[k])
	}
	return out
}

// Len returns the number of recorded blocks.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.blocks)
}

// Result is the accounting of one reconcile pass. MigratedBytes must
// reconcile delta-0 against the membership.migrated_bytes counter.
type Result struct {
	Affected      []cluster.NodeID
	RestagedCount int64
	MigratedBytes int64
	Reinserted    int64
}

// Restage is the one way a ledger block is moved: its exposure and location
// record are withdrawn at the recorded owner, then the ledger's block is put
// at core to — the same core after a crash (Reconcile), another one for a
// remap (remap.Apply). An absent buffer is no error: the owner's process
// may be gone, or the producer's own retry re-staged the block first. The
// space's put recorder follows the move (the discard drops the record, the
// put writes it again under the new owner); like any failed PutSequential,
// a failed re-stage leaves the block off the ledger.
func Restage(sp *cods.Space, b Block, to cluster.CoreID, phase string) error {
	from := sp.HandleAt(b.Owner, b.App, phase)
	if mutate.Enabled(mutate.RemapStaleOwner) && to != b.Owner {
		// Seeded defect: free the old copy's bytes but leave its location
		// record registered (and skip the schedule invalidation that rides
		// on the removal), so lookups keep naming the pre-migration owner.
		_ = from.Discard(b.Var, b.Version, b.Region)
	} else if err := from.DiscardSequential(b.Var, b.Version, b.Region); err != nil {
		return fmt.Errorf("membership: withdrawing %q v%d %v at core %d: %w", b.Var, b.Version, b.Region, b.Owner, err)
	}
	if err := sp.HandleAt(to, b.App, phase).PutSequential(b.Var, b.Version, b.Region, b.Data); err != nil {
		return fmt.Errorf("membership: re-staging %q v%d %v at core %d: %w", b.Var, b.Version, b.Region, to, err)
	}
	return nil
}

// Reconcile converges the space after the affected nodes lost their serving
// process and a replacement took each one's slot: every ledger block owned
// by a core of an affected node is re-staged in place; every other block
// has its location record re-registered — it may have lived in an affected
// node's table, and inserts are idempotent where it did not. A re-stage's
// discard bumps its variable's schedule generation, so no cached schedule
// outlives it; the survivors keep their owners, so schedules naming them
// stay valid. Run against a space that lost nothing, it changes nothing.
func Reconcile(sp *cods.Space, ledger *Ledger, affected []cluster.NodeID) (Result, error) {
	res := Result{Affected: append([]cluster.NodeID(nil), affected...)}
	hit := make(map[cluster.NodeID]bool, len(affected))
	for _, n := range affected {
		hit[n] = true
	}
	machine := sp.Fabric().Machine()
	for _, b := range ledger.Blocks() {
		if hit[machine.NodeOf(b.Owner)] {
			if err := Restage(sp, b, b.Owner, "elastic"); err != nil {
				return res, err
			}
			res.RestagedCount++
			res.MigratedBytes += b.Bytes()
			obsMigBlocks.Inc()
			obsMigBytes.Add(b.Bytes())
			continue
		}
		if mutate.Enabled(mutate.ReconcileSkipReinsert) {
			continue // seeded defect: the survivors' records stay lost
		}
		err := sp.Lookup().ClientAt(b.Owner).Insert("elastic", b.App,
			dht.Entry{Var: b.Var, Version: b.Version, Region: b.Region, Owner: b.Owner})
		if err != nil {
			return res, fmt.Errorf("membership: re-registering %q v%d %v: %w", b.Var, b.Version, b.Region, err)
		}
		res.Reinserted++
		obsReinserts.Inc()
	}
	return res, nil
}

// Monitor renews every alive member's lease on a fixed interval by
// probing the serving process (Backend.ProbeLease under the TCP backend).
// Members are probed concurrently — a stalled probe to one node must not
// starve another node's renewal past its TTL — and a failed probe is
// re-tried briefly within the pass before the renewal is given up, so a
// transient dial failure during a neighbor's replacement does not eat a
// healthy lease. A probe that fails every attempt is still not an error —
// the lease simply is not renewed, and expiry surfaces the crash on the
// next Sweep. What one renewal pass costs at steady state — wire bytes, no
// flow, allocations per probe — is held by TestPlaneCosts/elastic
// (internal/transport/tcpnet).
type Monitor struct {
	reg      *Registry
	interval time.Duration
	probe    func(node cluster.NodeID, incarnation uint64) error

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewMonitor creates a lease monitor probing each alive member every
// interval.
func NewMonitor(reg *Registry, interval time.Duration, probe func(node cluster.NodeID, incarnation uint64) error) *Monitor {
	return &Monitor{
		reg:      reg,
		interval: interval,
		probe:    probe,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the renewal loop.
func (mo *Monitor) Start() {
	go func() {
		defer close(mo.done)
		t := time.NewTicker(mo.interval)
		defer t.Stop()
		for {
			select {
			case <-mo.stop:
				return
			case <-t.C:
				mo.renewAll()
			}
		}
	}()
}

// probeAttempts is how many times one renewal pass tries a member's probe
// before giving up on that pass; retries are spaced a fraction of the
// renewal interval apart so a full pass stays within one interval.
const probeAttempts = 3

func (mo *Monitor) renewAll() {
	var wg sync.WaitGroup
	for _, m := range mo.reg.Members() {
		if m.State != Alive.String() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for attempt := 1; ; attempt++ {
				if err := mo.probe(m.Node, m.Incarnation); err == nil {
					_ = mo.reg.Renew(m.Node, m.Incarnation)
					return
				}
				if attempt >= probeAttempts {
					return // not renewed; expiry will surface it
				}
				time.Sleep(mo.interval / 4)
			}
		}()
	}
	wg.Wait()
}

// Stop halts the renewal loop and waits for it to exit. Idempotent.
func (mo *Monitor) Stop() {
	mo.once.Do(func() { close(mo.stop) })
	<-mo.done
}
