package runtime

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/workflow"
)

func cellValue(p geometry.Point) float64 {
	v := 0.0
	for _, x := range p {
		v = v*1000 + float64(x)
	}
	return v
}

func fillRegion(b geometry.BBox) []float64 {
	data := make([]float64, b.Volume())
	i := 0
	b.Each(func(p geometry.Point) {
		data[i] = cellValue(p)
		i++
	})
	return data
}

func verifyRegion(region geometry.BBox, got []float64) error {
	if int64(len(got)) != region.Volume() {
		return fmt.Errorf("length %d != volume %d", len(got), region.Volume())
	}
	i := 0
	var err error
	region.Each(func(p geometry.Point) {
		if err == nil && got[i] != cellValue(p) {
			err = fmt.Errorf("cell %v = %v, want %v", p, got[i], cellValue(p))
		}
		i++
	})
	return err
}

func mustDecomp(t testing.TB, kind decomp.Kind, size, grid []int) *decomp.Decomposition {
	t.Helper()
	dc, err := decomp.New(kind, geometry.BoxFromSize(size), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func newServer(t testing.TB, nodes, cores int, size []int) *Server {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(m, geometry.BoxFromSize(size), 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// producerPutsConcurrent returns an AppFunc that exposes every owned block
// for direct consumption.
func producerPutsConcurrent(v string) AppFunc {
	return func(ctx *AppContext) error {
		for _, blk := range ctx.Decomp.Region(ctx.Rank) {
			if err := ctx.Space.PutConcurrent(v, 0, blk, fillRegion(blk)); err != nil {
				return err
			}
		}
		return ctx.Comm.Barrier()
	}
}

// consumerGetsConcurrent pulls the task's region from a producer and
// verifies the contents.
func consumerGetsConcurrent(v string, producer int) AppFunc {
	return func(ctx *AppContext) error {
		info, ok := ctx.Producers[producer]
		if !ok {
			return fmt.Errorf("producer %d info missing", producer)
		}
		for _, region := range ctx.Decomp.Region(ctx.Rank) {
			got, err := ctx.Space.GetConcurrent(info, v, 0, region)
			if err != nil {
				return err
			}
			if err := verifyRegion(region, got); err != nil {
				return fmt.Errorf("rank %d: %w", ctx.Rank, err)
			}
		}
		return nil
	}
}

func TestConcurrentWorkflowBothPolicies(t *testing.T) {
	for _, policy := range []Policy{DataCentric, RoundRobin} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			size := []int{8, 8, 8}
			s := newServer(t, 4, 4, size)
			if err := s.RegisterApp(AppSpec{
				ID:     1,
				Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2, 2}),
				Run:    producerPutsConcurrent("flux"),
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.RegisterApp(AppSpec{
				ID:     2,
				Decomp: mustDecomp(t, decomp.Blocked, size, []int{1, 2, 2}),
				Run:    consumerGetsConcurrent("flux", 1),
			}); err != nil {
				t.Fatal(err)
			}
			d, err := workflow.New([]int{1, 2}, nil, [][]int{{1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(d, policy)
			if err != nil {
				t.Fatal(err)
			}
			if rep.BundlesRun != 1 || rep.TasksRun != 12 {
				t.Fatalf("report = %+v", rep)
			}
			if rep.PlacementOf[1] == nil || rep.PlacementOf[2] == nil {
				t.Fatal("placements missing from report")
			}
		})
	}
}

func TestSequentialWorkflowBothPolicies(t *testing.T) {
	for _, policy := range []Policy{DataCentric, RoundRobin} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			size := []int{8, 8, 8}
			s := newServer(t, 4, 4, size)
			producer := func(ctx *AppContext) error {
				for _, blk := range ctx.Decomp.Region(ctx.Rank) {
					if err := ctx.Space.PutSequential("state", 0, blk, fillRegion(blk)); err != nil {
						return err
					}
				}
				return nil
			}
			consumer := func(ctx *AppContext) error {
				for _, region := range ctx.Decomp.Region(ctx.Rank) {
					got, err := ctx.Space.GetSequential("state", 0, region)
					if err != nil {
						return err
					}
					if err := verifyRegion(region, got); err != nil {
						return err
					}
				}
				return nil
			}
			specs := []AppSpec{
				{ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2, 2}), Run: producer},
				{ID: 2, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2, 1}), Run: consumer,
					ReadsVar: "state"},
				{ID: 3, Decomp: mustDecomp(t, decomp.Blocked, size, []int{1, 2, 2}), Run: consumer,
					ReadsVar: "state"},
			}
			for _, spec := range specs {
				if err := s.RegisterApp(spec); err != nil {
					t.Fatal(err)
				}
			}
			d, err := workflow.New([]int{1, 2, 3}, [][2]int{{1, 2}, {1, 3}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(d, policy)
			if err != nil {
				t.Fatal(err)
			}
			if rep.BundlesRun != 3 || rep.TasksRun != 16 {
				t.Fatalf("report = %+v", rep)
			}
			// The sibling consumers must have run as one group: their
			// placements are the same object.
			if rep.PlacementOf[2] != rep.PlacementOf[3] {
				t.Fatal("sibling consumers did not share a mapping group")
			}
		})
	}
}

func TestDataCentricBeatsRoundRobinOnNetworkBytes(t *testing.T) {
	size := []int{8, 8, 8}
	run := func(policy Policy) int64 {
		s := newServer(t, 4, 4, size)
		if err := s.RegisterApp(AppSpec{
			ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2, 2}),
			Run: producerPutsConcurrent("v"),
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterApp(AppSpec{
			ID: 2, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2, 1}),
			Run: consumerGetsConcurrent("v", 1),
		}); err != nil {
			t.Fatal(err)
		}
		d, err := workflow.New([]int{1, 2}, nil, [][]int{{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(d, policy); err != nil {
			t.Fatal(err)
		}
		return s.Machine().Metrics().Bytes(cluster.InterApp, cluster.Network)
	}
	rr := run(RoundRobin)
	dc := run(DataCentric)
	if dc >= rr {
		t.Fatalf("data-centric network bytes %d not below round-robin %d", dc, rr)
	}
}

func TestRunValidation(t *testing.T) {
	size := []int{4, 4}
	s := newServer(t, 2, 2, size)
	d, err := workflow.New([]int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(d, DataCentric); err == nil {
		t.Fatal("run with unregistered app accepted")
	}
	if err := s.RegisterApp(AppSpec{ID: 1}); err == nil {
		t.Fatal("spec without Run accepted")
	}
	if err := s.RegisterApp(AppSpec{ID: 1, Run: func(*AppContext) error { return nil }}); err == nil {
		t.Fatal("spec without Decomp accepted")
	}
	ok := AppSpec{ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2}),
		Run: func(*AppContext) error { return nil }}
	if err := s.RegisterApp(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterApp(ok); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestAppErrorPropagates(t *testing.T) {
	size := []int{4, 4}
	s := newServer(t, 2, 2, size)
	boom := fmt.Errorf("boom")
	if err := s.RegisterApp(AppSpec{
		ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 1}),
		Run: func(ctx *AppContext) error {
			if ctx.Rank == 1 {
				return boom
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := workflow.New([]int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(d, DataCentric)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestAppPanicIsCaptured(t *testing.T) {
	size := []int{4, 4}
	s := newServer(t, 2, 2, size)
	if err := s.RegisterApp(AppSpec{
		ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{1, 1}),
		Run: func(ctx *AppContext) error { panic("kaboom") },
	}); err != nil {
		t.Fatal(err)
	}
	d, _ := workflow.New([]int{1}, nil, nil)
	_, err := s.Run(d, DataCentric)
	var te *TaskError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not captured as a *TaskError: %v", err)
	}
}

func TestCommSplitRanksMatchTaskRanks(t *testing.T) {
	size := []int{8, 8}
	s := newServer(t, 2, 4, size)
	check := func(ctx *AppContext) error {
		if ctx.Comm.Rank() != ctx.Rank {
			return fmt.Errorf("app %d: comm rank %d != task rank %d", ctx.AppID, ctx.Comm.Rank(), ctx.Rank)
		}
		if ctx.Comm.Size() != ctx.Decomp.NumTasks() {
			return fmt.Errorf("app %d: comm size %d != tasks %d", ctx.AppID, ctx.Comm.Size(), ctx.Decomp.NumTasks())
		}
		// Exercise the group communicator.
		sum, err := ctx.Comm.Allreduce(0, []float64{1})
		if err != nil {
			return err
		}
		if int(sum[0]) != ctx.Comm.Size() {
			return fmt.Errorf("allreduce = %v", sum)
		}
		return nil
	}
	for _, id := range []int{1, 2} {
		grid := []int{2, 2}
		if id == 2 {
			grid = []int{2, 1}
		}
		if err := s.RegisterApp(AppSpec{ID: id, Decomp: mustDecomp(t, decomp.Blocked, size, grid), Run: check}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := workflow.New([]int{1, 2}, nil, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(d, DataCentric); err != nil {
		t.Fatal(err)
	}
}

// TestClientRegistration: one execution client per core — a 12-task
// application on a 3x4 machine runs every task from a core of its own.
func TestClientRegistration(t *testing.T) {
	size := []int{12, 12}
	s := newServer(t, 3, 4, size)
	var mu sync.Mutex
	cores := map[cluster.CoreID]int{}
	if err := s.RegisterApp(AppSpec{
		ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{4, 3}),
		Run: func(ctx *AppContext) error {
			mu.Lock()
			cores[ctx.Space.Core()]++
			mu.Unlock()
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	d, _ := workflow.New([]int{1}, nil, nil)
	if _, err := s.Run(d, DataCentric); err != nil {
		t.Fatal(err)
	}
	if len(cores) != 12 {
		t.Fatalf("12 tasks ran from %d distinct cores %v, want one each", len(cores), cores)
	}
}

// TestTaskRunsOnce: a failed subroutine is never invoked again — it fails
// the run as a *TaskError naming the task and its core, unwrapping to the
// subroutine's error.
func TestTaskRunsOnce(t *testing.T) {
	size := []int{4, 4}
	s := newServer(t, 2, 2, size)
	boom := errors.New("boom")
	var calls atomic.Int32
	if err := s.RegisterApp(AppSpec{
		ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{1, 1}),
		Run: func(*AppContext) error {
			calls.Add(1)
			return boom
		},
	}); err != nil {
		t.Fatal(err)
	}
	d, _ := workflow.New([]int{1}, nil, nil)
	_, err := s.Run(d, DataCentric)
	var te *TaskError
	if !errors.As(err, &te) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want a *TaskError wrapping the subroutine's error", err)
	}
	if te.Task != (cluster.TaskID{App: 1, Rank: 0}) {
		t.Fatalf("TaskError names task %v, want 1.0", te.Task)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the failed subroutine ran %d times, want once", n)
	}
}

func TestTaskErrorContract(t *testing.T) {
	boom := errors.New("boom")
	te := &TaskError{
		Task: cluster.TaskID{App: 3, Rank: 5},
		Core: 7,
		Err:  fmt.Errorf("wrapped: %w", boom),
	}
	if !errors.Is(te, boom) {
		t.Fatal("errors.Is does not reach the cause through TaskError")
	}
	var got *TaskError
	if !errors.As(error(te), &got) || got.Task.App != 3 || got.Core != 7 {
		t.Fatalf("errors.As round-trip = %+v", got)
	}
	msg := te.Error()
	for _, want := range []string{"3.5", "core 7", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}

// TestStagePlacements: Run maps each launch stage of DAG.Stages as one
// group, so the apps of one stage share one *Placement and apps of
// different stages never do. A task's Producers are the other apps of its
// own bundle, not of every bundle launched beside it.
func TestStagePlacements(t *testing.T) {
	for _, tc := range []struct {
		name    string
		apps    []int
		edges   [][2]int
		bundles [][]int
		stages  [][]int // app ids per stage
	}{
		{"listing 1", []int{1, 2, 3}, [][2]int{{1, 2}, {1, 3}}, nil, [][]int{{1}, {2, 3}}},
		{"independent app", []int{1, 2, 3}, [][2]int{{1, 2}}, nil, [][]int{{1, 3}, {2}}},
		{"bundle beside singles", []int{1, 2, 3, 4}, nil, [][]int{{1, 2}}, [][]int{{1, 2}, {3, 4}}},
		{"two bundles in a wave", []int{1, 2, 3, 4, 5}, [][2]int{{1, 5}}, [][]int{{3, 4}, {1, 2}},
			[][]int{{3, 4}, {1, 2}, {5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := []int{4, 4}
			s := newServer(t, 2, 4, size)
			var mu sync.Mutex
			producers := map[int][]int{}
			for _, id := range tc.apps {
				if err := s.RegisterApp(AppSpec{ID: id, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 1}),
					Run: func(ctx *AppContext) error {
						mu.Lock()
						defer mu.Unlock()
						var ids []int
						for a := range ctx.Producers {
							ids = append(ids, a)
						}
						producers[ctx.AppID] = ids
						return nil
					}}); err != nil {
					t.Fatal(err)
				}
			}
			d, err := workflow.New(tc.apps, tc.edges, tc.bundles)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(d, DataCentric)
			if err != nil {
				t.Fatal(err)
			}
			stageOf := map[int]int{}
			for i, stage := range tc.stages {
				for _, a := range stage {
					stageOf[a] = i
				}
			}
			for _, a := range tc.apps {
				for _, b := range tc.apps {
					shared := rep.PlacementOf[a] == rep.PlacementOf[b]
					if rep.PlacementOf[a] == nil || shared != (stageOf[a] == stageOf[b]) {
						t.Errorf("apps %d and %d share a placement: %v, want stages %v", a, b, shared, tc.stages)
					}
				}
				var want []int
				for _, b := range tc.bundles {
					if slices.Contains(b, a) {
						want = slices.DeleteFunc(slices.Clone(b), func(o int) bool { return o == a })
					}
				}
				slices.Sort(want)
				slices.Sort(producers[a])
				if !slices.Equal(producers[a], want) {
					t.Errorf("app %d sees producers %v, want its bundle's others %v", a, producers[a], want)
				}
			}
		})
	}
}
