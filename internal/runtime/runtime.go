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
	"fmt"
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
	// GetConcurrent against a concurrently coupled producer; the apps of
	// other bundles launched in the same stage are not in it.
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

// TaskError reports a computation task that failed. It unwraps to the
// subroutine's error, so errors.Is/As reach through to PullError and the
// transport sentinels.
type TaskError struct {
	// Task identifies the failed task; Core is the core it ran its data
	// operations from.
	Task cluster.TaskID
	Core cluster.CoreID
	// Err is the subroutine's failure.
	Err error
}

// Error formats the failure.
func (e *TaskError) Error() string {
	return fmt.Sprintf("runtime: task %d.%d on core %d failed: %v", e.Task.App, e.Task.Rank, e.Core, e.Err)
}

// Unwrap exposes the subroutine's error.
func (e *TaskError) Unwrap() error { return e.Err }

// Server is the workflow management server plus the shared substrate
// (fabric, CoDS space) of one simulated machine.
type Server struct {
	machine *cluster.Machine
	fabric  *transport.Fabric
	space   *cods.Space
	apps    map[int]AppSpec
	seed    int64

	tracer atomic.Pointer[obs.Tracer]
}

// NewServer bootstraps the framework on a machine for a coupled data
// domain: it builds the HybridDART fabric and the CoDS space (with its
// lookup service). The space linearizes with the default Hilbert curve;
// NewServerWithCurve selects another policy.
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
	return &Server{machine: m, fabric: f, space: sp, apps: make(map[int]AppSpec), seed: seed}, nil
}

// SetTracer routes span events from the workflow engine — and from the
// CoDS pulls the launched tasks perform — to tr. A nil tracer disables
// span emission.
func (s *Server) SetTracer(tr *obs.Tracer) {
	s.tracer.Store(tr)
	s.space.SetTracer(tr)
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
	// FaultsInjected is the fabric's injected-error total at run end
	// (across the fabric's lifetime, not just this run).
	FaultsInjected int64
}

// Run executes a workflow to completion under the given mapping policy,
// one launch stage of workflow.DAG.Stages at a time: each stage is mapped
// as one group and its tasks run concurrently.
func (s *Server) Run(d *workflow.DAG, policy Policy) (*Report, error) {
	for _, a := range d.Apps {
		if _, ok := s.apps[a]; !ok {
			return nil, fmt.Errorf("runtime: workflow references unregistered application %d", a)
		}
	}
	stages, err := d.Stages()
	if err != nil {
		return nil, err
	}
	rep := &Report{Policy: policy, PlacementOf: make(map[int]*cluster.Placement)}
	tr := s.tracer.Load()
	root := tr.Start(0, "workflow:"+policy.String())
	defer root.End()
	for _, stage := range stages {
		var appIDs []int
		bundleOf := make(map[int][]int)
		for _, b := range stage {
			appIDs = append(appIDs, d.Bundles[b]...)
			for _, a := range d.Bundles[b] {
				bundleOf[a] = d.Bundles[b]
			}
		}
		var mapStart time.Time
		if obs.Enabled() {
			mapStart = time.Now()
		}
		bundle := len(stage) == 1 && len(appIDs) > 1
		pl, err := s.mapGroup(d, appIDs, bundle, policy)
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
			obsBundlesRun.Add(int64(len(stage)))
		}
		err = s.launchGroup(appIDs, bundleOf, pl, gs.ID())
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
		rep.BundlesRun += len(stage)
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
// scheduled together; bundle reports that the group is one concurrently
// coupled bundle of several applications.
func (s *Server) mapGroup(d *workflow.DAG, appIDs []int, bundle bool, policy Policy) (*cluster.Placement, error) {
	apps := s.graphApps(appIDs)
	if policy == RoundRobin {
		// The launcher baseline: consecutive SMP placement, which is what
		// the "round-robin" MPI job launchers of the paper's comparison
		// produce per application.
		return mapping.Consecutive(s.machine, apps, nil)
	}
	if bundle {
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

// launchGroup runs every task of the group's applications on its placed
// core (bundleOf names each application's bundle): a bundle-wide
// communicator is created, each execution client
// colors itself with its application id and splits into the per-app
// communicator, then invokes the registered subroutine — once. A task that
// has met a collective cannot be restarted without its peers, so a failed
// task fails the run as a *TaskError; riding out a lost node is the job of
// the data operations and their retry policy.
func (s *Server) launchGroup(appIDs []int, bundleOf map[int][]int, pl *cluster.Placement, parent obs.SpanID) error {
	// Deterministic task order defines bundle-comm ranks.
	tasks := pl.Tasks()
	if len(tasks) == 0 {
		return fmt.Errorf("runtime: empty placement")
	}
	cores := make([]cluster.CoreID, len(tasks))
	for i, t := range tasks {
		cores[i] = pl.MustCoreOf(t)
	}
	bundleComms, err := mpi.NewComms(s.fabric, cores, 0, "setup")
	if err != nil {
		return err
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

	tr := s.tracer.Load()
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t cluster.TaskID) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &TaskError{Task: t, Core: cores[i], Err: fmt.Errorf("panic: %v", r)}
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
			// Coloring: same app id -> same process group.
			sub, err := bundleComms[i].CommSplit(t.App, t.Rank)
			if err != nil {
				errs[i] = &TaskError{Task: t, Core: cores[i], Err: err}
				return
			}
			spec := s.apps[t.App]
			others := make(map[int]cods.ProducerInfo, len(bundleOf[t.App])-1)
			for _, a := range bundleOf[t.App] {
				if a != t.App {
					others[a] = producers[a]
				}
			}
			h := s.space.HandleAt(cores[i], t.App, fmt.Sprintf("app:%d", t.App))
			h.SetSpanParent(ts.ID())
			if err := spec.Run(&AppContext{
				AppID:     t.App,
				Rank:      t.Rank,
				Comm:      sub,
				Space:     h,
				Decomp:    spec.Decomp,
				Producers: others,
				Machine:   s.machine,
			}); err != nil {
				errs[i] = &TaskError{Task: t, Core: cores[i], Err: err}
			}
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
