// Package runtime ties the framework together: it implements the workflow
// management server (execution client management + workflow engine) and
// the execution clients that run the computation tasks of the coupled
// applications (paper Sections III-A and IV-C).
//
// One execution client is created per processor core. To run a bundle, the
// server chooses a task mapping (server-side data-centric for concurrently
// coupled bundles, decentralized client-side for sequentially coupled
// consumers, or the round-robin baseline), then launches the bundle's
// tasks: the execution clients form a process group per application by
// "coloring" a bundle-wide communicator with the application id through
// CommSplit — the MPI_Comm_split mechanism of Section IV-C — and invoke
// the application subroutine registered for that id (applications are
// statically registered with the framework, mirroring the paper's
// pre-linked MPI subroutines).
package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/mpi"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/workflow"
)

// Registry instruments for the workflow engine: per-phase wall clock (the
// mapping decision and the group launch are the two server-side phases the
// paper's Figure 13/14 cost out) and run-shape counters.
var (
	obsMapNs       = obs.H("runtime.map_ns", obs.DefaultLatencyBounds())
	obsGroupNs     = obs.H("runtime.group_ns", obs.DefaultLatencyBounds())
	obsTaskNs      = obs.H("runtime.task_ns", obs.DefaultLatencyBounds())
	obsBundlesRun  = obs.C("runtime.bundles_run")
	obsTasksRun    = obs.C("runtime.tasks_run")
	obsTasksActive = obs.G("runtime.tasks_active")
	obsTaskRetries = obs.C("runtime.task.retries")
	obsTaskRecovs  = obs.C("runtime.task.recoveries")
	obsTaskRemaps  = obs.C("runtime.task.remaps")
	obsTaskBackoff = obs.H("runtime.task.backoff_ns", obs.DefaultLatencyBounds())
)

// Policy selects the task mapping strategy for a run.
type Policy int

// Mapping policies.
const (
	// DataCentric uses server-side graph partitioning for concurrently
	// coupled bundles and client-side locality mapping for sequentially
	// coupled consumers (the paper's contribution).
	DataCentric Policy = iota
	// RoundRobin is the baseline of many MPI job launchers.
	RoundRobin
)

// String names the policy.
func (p Policy) String() string {
	if p == DataCentric {
		return "data-centric"
	}
	return "round-robin"
}

// AppContext is what a computation task sees while running.
type AppContext struct {
	// AppID and Rank identify this task.
	AppID int
	Rank  int
	// Comm is the per-application communicator created by the coloring
	// split; rank order follows task rank.
	Comm *mpi.Comm
	// Space is the task's CoDS handle for put/get operators.
	Space *cods.Handle
	// Decomp is the application's declared data decomposition.
	Decomp *decomp.Decomposition
	// Producers describes the other applications of the same bundle, for
	// GetConcurrent against a concurrently coupled producer.
	Producers map[int]cods.ProducerInfo
	// Machine gives access to topology and metrics.
	Machine *cluster.Machine
}

// AppFunc is the registered subroutine of one parallel application; it is
// invoked once per computation task.
type AppFunc func(*AppContext) error

// AppSpec declares an application to the framework.
type AppSpec struct {
	// ID is the unique application id used in the workflow description.
	ID int
	// Decomp is the data decomposition of the application's domain.
	Decomp *decomp.Decomposition
	// Run is the application subroutine.
	Run AppFunc
	// ReadsVar optionally names the CoDS variable this application
	// consumes from a sequentially coupled producer; it enables the
	// client-side data-centric mapping for this application.
	ReadsVar string
	// ReadsVersion is the version of ReadsVar the tasks will request.
	ReadsVersion int
}

// TaskRetryPolicy bounds the re-running of failed computation tasks. The
// embedded retry.Policy supplies the attempt budget and the backoff slept
// between attempts. Task retry assumes restartable subroutines: a
// subroutine must tolerate being invoked again from the top (the put/get
// operators are idempotent — re-exposing an existing buffer fails
// harmlessly and re-inserting a location record is deduplicated — but a
// subroutine blocked inside a collective with already-finished peers
// cannot be saved by re-running it, so retries are opt-in).
type TaskRetryPolicy struct {
	retry.Policy
	// Remap rebinds a retried task's data operations (its CoDS handle) to a
	// spare idle core, so a task whose own endpoint went bad can make
	// progress from a healthy one. The task's communicator
	// rank is unchanged.
	Remap bool
}

// TaskError reports a computation task that failed all its attempts. It
// unwraps to the subroutine's final error, so errors.Is/As reach through
// to PullError and the transport sentinels.
type TaskError struct {
	// Task identifies the failed task; Core is the core its last attempt
	// ran its data operations from.
	Task cluster.TaskID
	Core cluster.CoreID
	// Attempts is the number of times the subroutine was invoked.
	Attempts int
	// Err is the last attempt's failure.
	Err error
}

// Error formats the failure.
func (e *TaskError) Error() string {
	return fmt.Sprintf("runtime: task %d.%d on core %d failed after %d attempt(s): %v",
		e.Task.App, e.Task.Rank, e.Core, e.Attempts, e.Err)
}

// Unwrap exposes the subroutine's error.
func (e *TaskError) Unwrap() error { return e.Err }

// clientState tracks one execution client in the management server.
type clientState int

const (
	clientIdle clientState = iota
	clientBusy
	// clientRetired marks a core whose node left the member set: it is
	// never picked as a remap spare until the node rejoins (RestoreNode).
	clientRetired
)

// Server is the workflow management server plus the shared substrate
// (fabric, CoDS space) of one simulated machine.
type Server struct {
	machine *cluster.Machine
	fabric  *transport.Fabric
	space   *cods.Space
	apps    map[int]AppSpec
	seed    int64

	mu      sync.Mutex
	clients map[cluster.CoreID]clientState

	tracer    atomic.Pointer[obs.Tracer]
	taskRetry atomic.Pointer[TaskRetryPolicy]
}

// NewServer bootstraps the framework on a machine for a coupled data
// domain: it builds the HybridDART fabric, the CoDS space (with its lookup
// service) and registers one execution client per core. The space
// linearizes with the default Hilbert curve; NewServerWithCurve selects
// another policy.
func NewServer(m *cluster.Machine, domain geometry.BBox, seed int64) (*Server, error) {
	return NewServerWithCurve(m, domain, seed, "")
}

// NewServerWithCurve is NewServer with an explicit linearization policy
// ("hilbert", "morton" or "rowmajor"; empty selects the default).
func NewServerWithCurve(m *cluster.Machine, domain geometry.BBox, seed int64, curve string) (*Server, error) {
	f := transport.NewFabric(m)
	sp, err := cods.NewSpaceWithCurve(f, domain, curve)
	if err != nil {
		return nil, err
	}
	s := &Server{
		machine: m,
		fabric:  f,
		space:   sp,
		apps:    make(map[int]AppSpec),
		seed:    seed,
		clients: make(map[cluster.CoreID]clientState),
	}
	for c := 0; c < m.TotalCores(); c++ {
		s.clients[cluster.CoreID(c)] = clientIdle
	}
	return s, nil
}

// SetTracer routes span events from the workflow engine — and from the
// CoDS pulls the launched tasks perform — to tr. A nil tracer disables
// span emission.
func (s *Server) SetTracer(tr *obs.Tracer) {
	s.tracer.Store(tr)
	s.space.SetTracer(tr)
}

// SetTaskRetry installs the task retry policy: a failed task is re-run up
// to the policy's attempt budget, with backoff between attempts and
// optionally remapped to a spare core. The zero policy (the default)
// disables task retrying.
func (s *Server) SetTaskRetry(p TaskRetryPolicy) { s.taskRetry.Store(&p) }

// taskRetryPolicy returns the installed policy (zero when none).
func (s *Server) taskRetryPolicy() TaskRetryPolicy {
	if p := s.taskRetry.Load(); p != nil {
		return *p
	}
	return TaskRetryPolicy{}
}

// Machine returns the underlying machine.
func (s *Server) Machine() *cluster.Machine { return s.machine }

// Space returns the CoDS instance.
func (s *Server) Space() *cods.Space { return s.space }

// Fabric returns the transport fabric.
func (s *Server) Fabric() *transport.Fabric { return s.fabric }

// RegisterApp declares an application; all applications of a workflow must
// be registered before Run.
func (s *Server) RegisterApp(spec AppSpec) error {
	if spec.Run == nil {
		return fmt.Errorf("runtime: application %d has no subroutine", spec.ID)
	}
	if spec.Decomp == nil {
		return fmt.Errorf("runtime: application %d has no decomposition", spec.ID)
	}
	if _, dup := s.apps[spec.ID]; dup {
		return fmt.Errorf("runtime: application %d registered twice", spec.ID)
	}
	s.apps[spec.ID] = spec
	return nil
}

// Report summarizes one workflow run.
type Report struct {
	Policy     Policy
	BundlesRun int
	TasksRun   int
	// PlacementOf records the placement each application ran under.
	PlacementOf map[int]*cluster.Placement

	// TaskAttempts counts every subroutine invocation, retries included;
	// it equals TasksRun when nothing failed.
	TaskAttempts int
	// TaskRetries counts re-invocations after a failed attempt.
	TaskRetries int
	// TaskRecoveries counts tasks that succeeded after >= 1 failure.
	TaskRecoveries int
	// FaultsInjected is the fabric's injected-error total at run end
	// (across the fabric's lifetime, not just this run).
	FaultsInjected int64
}

// Run executes a workflow to completion under the given mapping policy.
// Ready bundles found at the same engine step run concurrently when they
// are single-application consumers (the paper's land + sea-ice pattern);
// multi-application bundles run as their own group.
func (s *Server) Run(d *workflow.DAG, policy Policy) (*Report, error) {
	for _, a := range d.Apps {
		if _, ok := s.apps[a]; !ok {
			return nil, fmt.Errorf("runtime: workflow references unregistered application %d", a)
		}
	}
	eng := workflow.NewEngine(d)
	rep := &Report{Policy: policy, PlacementOf: make(map[int]*cluster.Placement)}
	tr := s.tracer.Load()
	root := tr.Start(0, "workflow:"+policy.String())
	defer root.End()
	for !eng.Finished() {
		ready := eng.Ready()
		if len(ready) == 0 {
			return nil, fmt.Errorf("runtime: workflow stuck with no ready bundles")
		}
		// Group the ready set: each multi-app bundle is its own group;
		// single-app bundles run together as one group so sibling
		// consumers retrieve data simultaneously.
		var groups [][]int
		var singles []int
		for _, b := range ready {
			if len(d.Bundles[b]) > 1 {
				groups = append(groups, []int{b})
			} else {
				singles = append(singles, b)
			}
		}
		if len(singles) > 0 {
			groups = append(groups, singles)
		}
		for _, grp := range groups {
			var appIDs []int
			for _, b := range grp {
				if err := eng.Start(b); err != nil {
					return nil, err
				}
				appIDs = append(appIDs, d.Bundles[b]...)
			}
			var mapStart time.Time
			if obs.Enabled() {
				mapStart = time.Now()
			}
			pl, err := s.mapGroup(d, appIDs, policy)
			if err != nil {
				return nil, err
			}
			if !mapStart.IsZero() {
				obsMapNs.Observe(time.Since(mapStart).Nanoseconds())
			}
			gs := tr.Start(root.ID(), fmt.Sprintf("group:%v", appIDs))
			var groupStart time.Time
			if obs.Enabled() {
				groupStart = time.Now()
				obsBundlesRun.Add(int64(len(grp)))
			}
			gstats, err := s.launchGroup(appIDs, pl, gs.ID())
			rep.TaskAttempts += gstats.attempts
			rep.TaskRetries += gstats.retries
			rep.TaskRecoveries += gstats.recoveries
			gs.End()
			if err != nil {
				rep.FaultsInjected = s.fabric.FaultsInjected()
				return nil, err
			}
			if !groupStart.IsZero() {
				obsGroupNs.Observe(time.Since(groupStart).Nanoseconds())
			}
			for _, a := range appIDs {
				rep.PlacementOf[a] = pl
				rep.TasksRun += s.apps[a].Decomp.NumTasks()
			}
			for _, b := range grp {
				if err := eng.Complete(b); err != nil {
					return nil, err
				}
				rep.BundlesRun++
			}
		}
	}
	rep.FaultsInjected = s.fabric.FaultsInjected()
	return rep, nil
}

// graphApps converts registered specs to graph.App descriptors.
func (s *Server) graphApps(appIDs []int) []graph.App {
	out := make([]graph.App, len(appIDs))
	for i, a := range appIDs {
		out[i] = graph.App{ID: a, Decomp: s.apps[a].Decomp}
	}
	return out
}

// mapGroup chooses and computes the placement for a group of applications
// scheduled together.
func (s *Server) mapGroup(d *workflow.DAG, appIDs []int, policy Policy) (*cluster.Placement, error) {
	apps := s.graphApps(appIDs)
	if policy == RoundRobin {
		// The launcher baseline: consecutive SMP placement, which is what
		// the "round-robin" MPI job launchers of the paper's comparison
		// produce per application.
		return mapping.Consecutive(s.machine, apps, nil)
	}
	if len(appIDs) > 1 && sameBundle(d, appIDs) {
		// Concurrently coupled bundle: server-side mapping over the
		// inter-application communication graph. All producer->consumer
		// pairs inside the bundle are coupled.
		var couplings [][2]int
		for i := 0; i < len(appIDs); i++ {
			for j := i + 1; j < len(appIDs); j++ {
				couplings = append(couplings, [2]int{appIDs[i], appIDs[j]})
			}
		}
		return mapping.ServerDataCentric(s.machine,
			mapping.Bundle{Apps: apps, Couplings: couplings}, nil, cods.ElemSize, s.seed)
	}
	// Sequentially coupled consumers: client-side mapping when every app
	// declares what it reads and has a parent.
	var consumers []mapping.Consumer
	for i, a := range appIDs {
		spec := s.apps[a]
		if spec.ReadsVar == "" || len(d.Parents(a)) == 0 {
			consumers = nil
			break
		}
		consumers = append(consumers, mapping.Consumer{
			App: apps[i], Var: spec.ReadsVar, Version: spec.ReadsVersion,
		})
	}
	if consumers != nil {
		return mapping.ClientDataCentric(s.machine, s.space.Lookup(), consumers, nil,
			fmt.Sprintf("map:%v", appIDs))
	}
	return mapping.Consecutive(s.machine, apps, nil)
}

// sameBundle reports whether the app ids form exactly one bundle of the
// DAG.
func sameBundle(d *workflow.DAG, appIDs []int) bool {
	want := append([]int(nil), appIDs...)
	sort.Ints(want)
	for _, b := range d.Bundles {
		got := append([]int(nil), b...)
		sort.Ints(got)
		if len(got) != len(want) {
			continue
		}
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// groupStats tallies the retry activity of one launched group.
type groupStats struct {
	attempts   int
	retries    int
	recoveries int
}

// launchGroup runs every task of the group's applications on its placed
// core: a bundle-wide communicator is created, each execution client
// colors itself with its application id and splits into the per-app
// communicator, then runs the registered subroutine. When a task retry
// policy is installed, a failed subroutine is re-invoked up to the attempt
// budget with backoff between attempts; the communicator split happens
// once, before the first attempt, because a torn-down group cannot be
// re-colored without its peers.
func (s *Server) launchGroup(appIDs []int, pl *cluster.Placement, parent obs.SpanID) (groupStats, error) {
	// Deterministic task order defines bundle-comm ranks.
	tasks := pl.Tasks()
	if len(tasks) == 0 {
		return groupStats{}, fmt.Errorf("runtime: empty placement")
	}
	cores := make([]cluster.CoreID, len(tasks))
	for i, t := range tasks {
		cores[i] = pl.MustCoreOf(t)
	}
	bundleComms, err := mpi.NewComms(s.fabric, cores, 0, "setup")
	if err != nil {
		return groupStats{}, err
	}
	// Producer info for concurrent coupling inside the group.
	producers := make(map[int]cods.ProducerInfo, len(appIDs))
	for _, a := range appIDs {
		a := a
		producers[a] = cods.ProducerInfo{
			Decomp: s.apps[a].Decomp,
			CoreOf: func(rank int) cluster.CoreID {
				return pl.MustCoreOf(cluster.TaskID{App: a, Rank: rank})
			},
		}
	}
	s.markClients(cores, clientBusy)
	defer s.markClients(cores, clientIdle)

	pol := s.taskRetryPolicy()
	tr := s.tracer.Load()
	errs := make([]error, len(tasks))
	stats := make([]groupStats, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t cluster.TaskID) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("runtime: task %v panicked: %v", t, r)
				}
			}()
			ts := tr.Start(parent, fmt.Sprintf("task:%d.%d", t.App, t.Rank))
			defer ts.End()
			if obs.Enabled() {
				taskStart := time.Now()
				obsTasksRun.Inc()
				obsTasksActive.Add(1)
				defer func() {
					obsTasksActive.Add(-1)
					obsTaskNs.Observe(time.Since(taskStart).Nanoseconds())
				}()
			}
			// Coloring: same app id -> same process group. Split errors are
			// not retried: the peers have already formed the group.
			sub, err := bundleComms[i].CommSplit(t.App, t.Rank)
			if err != nil {
				errs[i] = err
				return
			}
			spec := s.apps[t.App]
			others := make(map[int]cods.ProducerInfo, len(producers)-1)
			for a, info := range producers {
				if a != t.App {
					others[a] = info
				}
			}
			// core is where the task's data operations bind; a remap moves
			// it to a spare execution client between attempts.
			core := cores[i]
			runAttempt := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("runtime: task %v panicked: %v", t, r)
					}
				}()
				h := s.space.HandleAt(core, t.App, fmt.Sprintf("app:%d", t.App))
				h.SetSpanParent(ts.ID())
				ctx := &AppContext{
					AppID:     t.App,
					Rank:      t.Rank,
					Comm:      sub,
					Space:     h,
					Decomp:    spec.Decomp,
					Producers: others,
					Machine:   s.machine,
				}
				return spec.Run(ctx)
			}
			seed := uint64(uint32(t.App))<<32 | uint64(uint32(t.Rank))
			attempts, err := retry.Do(pol.Policy, seed, nil,
				func(d time.Duration) {
					obsTaskBackoff.Observe(d.Nanoseconds())
				},
				func(attempt int) error {
					if attempt > 1 {
						stats[i].retries++
						obsTaskRetries.Inc()
						tr.Event(ts.ID(), fmt.Sprintf("retry:task:%d.%d", t.App, t.Rank))
						if pol.Remap {
							if spare, ok := s.spareCore(core); ok {
								core = spare
								obsTaskRemaps.Inc()
							}
						}
					}
					stats[i].attempts++
					return runAttempt()
				})
			if err != nil {
				errs[i] = &TaskError{Task: t, Core: core, Attempts: attempts, Err: err}
				return
			}
			if attempts > 1 {
				stats[i].recoveries++
				obsTaskRecovs.Inc()
				tr.Event(ts.ID(), fmt.Sprintf("recovered:task:%d.%d", t.App, t.Rank))
			}
		}(i, t)
	}
	wg.Wait()
	var gs groupStats
	for _, st := range stats {
		gs.attempts += st.attempts
		gs.retries += st.retries
		gs.recoveries += st.recoveries
	}
	for i, err := range errs {
		if err != nil {
			var te *TaskError
			if errors.As(err, &te) {
				return gs, err
			}
			return gs, fmt.Errorf("runtime: task %v: %w", tasks[i], err)
		}
	}
	return gs, nil
}

// spareCore picks an idle execution client other than busy, for remapping a
// retried task's data operations. Spares are not marked busy: a handle on a
// shared core is harmless (every endpoint operation is concurrency-safe),
// and marking would starve sibling retries on small machines.
func (s *Server) spareCore(busy cluster.CoreID) (cluster.CoreID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, found := cluster.CoreID(0), false
	for c, st := range s.clients {
		if st != clientIdle || c == busy {
			continue
		}
		if !found || c < best {
			best, found = c, true
		}
	}
	return best, found
}

// markClients flips the registration state of a core set. Retired cores
// keep their state: a group teardown racing a node retirement must not
// resurrect the departed node's clients.
func (s *Server) markClients(cores []cluster.CoreID, st clientState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cores {
		if s.clients[c] == clientRetired {
			continue
		}
		s.clients[c] = st
	}
}

// RetireNode withdraws every execution client on a node from the remap
// spare pool — the node's serving process left the member set, so a
// retried task must move to a surviving core, never onto the dead node.
func (s *Server) RetireNode(node cluster.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := 0; c < s.machine.TotalCores(); c++ {
		if s.machine.NodeOf(cluster.CoreID(c)) == node {
			s.clients[cluster.CoreID(c)] = clientRetired
		}
	}
}

// RestoreNode re-registers a node's execution clients after a replacement
// process joined its slot.
func (s *Server) RestoreNode(node cluster.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := 0; c < s.machine.TotalCores(); c++ {
		if s.machine.NodeOf(cluster.CoreID(c)) == node && s.clients[cluster.CoreID(c)] == clientRetired {
			s.clients[cluster.CoreID(c)] = clientIdle
		}
	}
}
