// Package membership implements the elastic cluster layer: serving
// processes (codsnode) register with the driver, hold a TTL lease renewed
// by heartbeat probes, and leave by lease expiry (crash). A desired-state
// reconcile loop — the operator-controller idiom: observe the current
// state, diff it against the desired member set, converge — re-splits the DHT intervals and re-stages or
// re-registers the staged variables recorded in the put ledger, while
// in-flight pulls retry against the updated routing table.
//
// The package is deliberately mechanism-only: it owns the registry, the
// ledger, the lease monitor and the reconcile bookkeeping, and delegates
// the actual convergence actions (re-stage a block, re-insert a location
// record, re-split intervals) to callbacks bound by the embedding driver,
// so it stays free of transport and pull-engine dependencies.
package membership

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/insitu/cods/internal/cluster"
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

// Alive returns the node ids of the members currently holding a live
// lease, ascending — the desired member set the reconcile loop converges
// the routing onto.
func (r *Registry) Alive() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for node, m := range r.members {
		if m.state == Alive {
			out = append(out, int(node))
		}
	}
	sort.Ints(out)
	return out
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
// re-stage it byte-identically at a replacement owner.
type Block struct {
	Var     string
	Version int
	Region  geometry.BBox
	Owner   cluster.CoreID
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

// RecordPut stores a copy of a staged block (cods.PutRecorder).
func (l *Ledger) RecordPut(v string, version int, region geometry.BBox, owner cluster.CoreID, data []float64) {
	b := Block{Var: v, Version: version, Region: region.Clone(), Owner: owner,
		Data: append([]float64(nil), data...)}
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

// Actions binds the reconciler's convergence steps to the embedding
// driver's mechanisms.
type Actions struct {
	// Restage re-stages one ledger block whose owning process restarted:
	// the buffer must be exposed again at the owner core and its location
	// re-registered. Re-staging is idempotent on the lookup side.
	Restage func(b Block) error
	// Reinsert re-registers the location records of a block whose owner
	// survived — records that lived on a dead member's DHT interval were
	// lost with it, and inserts are idempotent where they were not.
	Reinsert func(b Block) error
	// Resplit converges the DHT interval assignment onto the alive member
	// set, handing surviving entries off; returns the number of records
	// moved. Nil skips the step (a replacement took the dead node's slot,
	// so the assignment is unchanged).
	Resplit func(alive []int) (int, error)
	// Invalidate drops every cached communication schedule, so pulls
	// re-query the converged routing instead of a pre-change owner.
	Invalidate func()
}

// Result is the accounting of one reconcile pass. MigratedBytes must
// reconcile delta-0 against the membership.migrated_bytes counter.
type Result struct {
	Affected      []cluster.NodeID
	RestagedCount int64
	MigratedBytes int64
	Reinserted    int64
	MovedRecords  int64
}

// Reconciler converges the data plane onto the registry's desired member
// set: observe (registry state + ledger), diff (which owners live on
// affected nodes), converge (re-stage, re-insert, re-split, invalidate).
type Reconciler struct {
	reg     *Registry
	ledger  *Ledger
	machine *cluster.Machine
	acts    Actions
}

// NewReconciler binds a reconciler to its observation sources and
// convergence actions.
func NewReconciler(reg *Registry, ledger *Ledger, m *cluster.Machine, acts Actions) *Reconciler {
	return &Reconciler{reg: reg, ledger: ledger, machine: m, acts: acts}
}

// Reconcile converges after the given nodes lost their serving process
// (crash + replacement join). Every ledger
// block owned by a core of an affected node is re-staged; every other
// block has its location records re-registered (they may have lived on an
// affected member's DHT interval); routing is re-split when the member
// set itself changed; finally every cached schedule is invalidated so
// in-flight and future pulls route against the converged state.
func (rc *Reconciler) Reconcile(affected []cluster.NodeID) (Result, error) {
	res := Result{Affected: append([]cluster.NodeID(nil), affected...)}
	hit := make(map[cluster.NodeID]bool, len(affected))
	for _, n := range affected {
		hit[n] = true
	}
	if rc.acts.Resplit != nil {
		moved, err := rc.acts.Resplit(rc.reg.Alive())
		if err != nil {
			return res, fmt.Errorf("membership: resplit: %w", err)
		}
		res.MovedRecords = int64(moved)
	}
	for _, b := range rc.ledger.Blocks() {
		if hit[rc.machine.NodeOf(b.Owner)] {
			if err := rc.acts.Restage(b); err != nil {
				return res, fmt.Errorf("membership: restaging %s v%d %s: %w", b.Var, b.Version, b.Region, err)
			}
			res.RestagedCount++
			res.MigratedBytes += b.Bytes()
			obsMigBlocks.Inc()
			obsMigBytes.Add(b.Bytes())
			continue
		}
		if rc.acts.Reinsert != nil {
			if err := rc.acts.Reinsert(b); err != nil {
				return res, fmt.Errorf("membership: re-registering %s v%d %s: %w", b.Var, b.Version, b.Region, err)
			}
			res.Reinserted++
			obsReinserts.Inc()
		}
	}
	if rc.acts.Invalidate != nil {
		rc.acts.Invalidate()
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
// next Sweep. The steady-state overhead of a running monitor is what
// benchguard's elastic gate bounds.
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
