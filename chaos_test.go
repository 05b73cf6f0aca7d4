package cods_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/obs"
)

// The chaos tests run complete coupled workflows under seeded fault plans
// and assert that the recovered results are byte-identical to a fault-free
// run: retries re-copy the same disjoint sub-boxes, so the assembled
// fields cannot drift no matter where the faults land. The fault schedule
// is deterministic (fire decisions are pure functions of the plan seed and
// each rule's match counter), so these assertions are stable under -race
// and -count=2.

// chaosRetry is the transfer retry policy the chaos workloads run under:
// a generous attempt budget with microsecond backoff, so recovery is fast
// and the tests stay quick.
func chaosRetry() cods.RetryPolicy {
	return cods.RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Microsecond,
		MaxDelay:    50 * time.Microsecond,
	}
}

// capture collects every region a consumer task retrieved, keyed by rank,
// version and region, for exact comparison across runs.
type capture struct {
	mu   sync.Mutex
	data map[string][]float64
}

func newCapture() *capture { return &capture{data: make(map[string][]float64)} }

func (c *capture) record(rank, version int, region cods.BBox, vals []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data[fmt.Sprintf("%d/%d/%s", rank, version, region)] = append([]float64(nil), vals...)
}

// chaosFill is the deterministic producer content of a region at a version.
func chaosFill(b cods.BBox, version int) []float64 {
	data := make([]float64, b.Volume())
	i := 0
	b.Each(func(p cods.Point) {
		v := float64(version) * 1e6
		for _, x := range p {
			v = v*100 + float64(x)
		}
		data[i] = v
		i++
	})
	return data
}

// runConcurrentWorkload runs a quickstart-style concurrently coupled pair
// (producer puts two versions, consumer pulls them directly) under an
// optional fault plan and returns what the consumer retrieved.
func runConcurrentWorkload(t *testing.T, plan *cods.FaultPlan) (map[string][]float64, *cods.Framework) {
	t.Helper()
	fw, err := cods.New(cods.Config{Nodes: 6, CoresPerNode: 4, Domain: []int{16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	fw.SetRetryPolicy(chaosRetry())
	if plan != nil {
		fw.SetFaultPlan(plan)
	}
	// A finer producer grid than the consumer's makes every consumer pull a
	// multi-transfer schedule (4 sub-box reads per region), giving the
	// fault rules a meaningful match stream.
	prodDc, err := fw.BlockedDecomposition([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	consDc, err := fw.BlockedDecomposition([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 2
	if err := fw.RegisterApp(cods.AppSpec{
		ID: 1, Decomp: prodDc,
		Run: func(ctx *cods.AppContext) error {
			for version := 0; version < iters; version++ {
				for _, blk := range ctx.Decomp.Region(ctx.Rank) {
					if err := ctx.Space.PutConcurrent("u", version, blk, chaosFill(blk, version)); err != nil {
						return err
					}
				}
				// A collective per version gives the delay rules Send/Recv
				// traffic to slow down without failing the run.
				if err := ctx.Comm.Barrier(); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	got := newCapture()
	if err := fw.RegisterApp(cods.AppSpec{
		ID: 2, Decomp: consDc,
		Run: func(ctx *cods.AppContext) error {
			info := ctx.Producers[1]
			for version := 0; version < iters; version++ {
				for _, region := range ctx.Decomp.Region(ctx.Rank) {
					vals, err := ctx.Space.GetConcurrent(info, "u", version, region)
					if err != nil {
						return err
					}
					got.record(ctx.Rank, version, region, vals)
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RunWorkflowText("APP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n", cods.DataCentric); err != nil {
		t.Fatalf("workflow failed under faults: %v", err)
	}
	return got.data, fw
}

// runSequentialWorkload runs a heatdiffusion-style staged pipeline under
// pol: the producer stages its field through the space, the sequentially
// coupled consumer pulls it back out through the lookup service.
func runSequentialWorkload(t *testing.T, pol cods.RetryPolicy, plan *cods.FaultPlan) (map[string][]float64, *cods.Framework) {
	t.Helper()
	fw, err := cods.New(cods.Config{Nodes: 4, CoresPerNode: 4, Domain: []int{16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	fw.SetRetryPolicy(pol)
	if plan != nil {
		fw.SetFaultPlan(plan)
	}
	prodDc, err := fw.BlockedDecomposition([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	consDc, err := fw.BlockedDecomposition([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterApp(cods.AppSpec{
		ID: 1, Decomp: prodDc,
		Run: func(ctx *cods.AppContext) error {
			for _, blk := range ctx.Decomp.Region(ctx.Rank) {
				if err := ctx.Space.PutSequential("state", 0, blk, chaosFill(blk, 0)); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	got := newCapture()
	if err := fw.RegisterApp(cods.AppSpec{
		ID: 2, Decomp: consDc, ReadsVar: "state",
		Run: func(ctx *cods.AppContext) error {
			for _, region := range ctx.Decomp.Region(ctx.Rank) {
				vals, err := ctx.Space.GetSequential("state", 0, region)
				if err != nil {
					return err
				}
				got.record(ctx.Rank, 0, region, vals)
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := cods.NewWorkflow([]int{1, 2}, [][2]int{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RunWorkflow(d, cods.DataCentric); err != nil {
		t.Fatalf("workflow failed under faults: %v", err)
	}
	return got.data, fw
}

func mustPlan(t *testing.T, src string) *cods.FaultPlan {
	t.Helper()
	p, err := cods.ParseFaultPlan([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Dropping a fraction of the one-sided reads must not change a single
// retrieved byte: the retry layer re-pulls each failed sub-box into its
// own disjoint slot of the output. Max bounds the total faults so even a
// pathological schedule terminates.
func TestChaosConcurrentReadDropRates(t *testing.T) {
	baseline, _ := runConcurrentWorkload(t, nil)
	for _, tc := range []struct {
		name string
		seed uint64
		prob float64
		// wantFaults requires the seeded schedule to actually fire; at 1%
		// the deterministic schedule may legitimately fire zero times.
		wantFaults bool
	}{
		{"drop1pct", 42, 0.01, false},
		{"drop5pct", 1, 0.05, true},
		{"drop10pct", 42, 0.10, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := mustPlan(t, fmt.Sprintf(
				`{"seed": %d, "rules": [{"op": "read", "mode": "drop", "prob": %g, "max": 40}]}`, tc.seed, tc.prob))
			got, fw := runConcurrentWorkload(t, plan)
			if !reflect.DeepEqual(got, baseline) {
				t.Fatal("faulty run diverged from the fault-free baseline")
			}
			if tc.wantFaults && plan.Injected() == 0 {
				t.Fatal("seeded plan injected no faults")
			}
			if fw.FaultsInjected() != plan.Injected() {
				t.Fatalf("fabric count %d != plan count %d", fw.FaultsInjected(), plan.Injected())
			}
		})
	}
}

// The same drop plan over the staged pipeline: a get retries its read
// against the schedule its one lookup built.
func TestChaosSequentialReadDrops(t *testing.T) {
	baseline, _ := runSequentialWorkload(t, chaosRetry(), nil)
	plan := mustPlan(t,
		`{"seed": 9, "rules": [{"op": "read", "mode": "drop", "prob": 0.1, "max": 40}]}`)
	got, fw := runSequentialWorkload(t, chaosRetry(), plan)
	if !reflect.DeepEqual(got, baseline) {
		t.Fatal("faulty run diverged from the fault-free baseline")
	}
	if fw.FaultsInjected() == 0 {
		t.Fatal("seeded plan injected no faults")
	}
}

// An owner endpoint going dark for a stretch of reads and then healing
// (the scripted window) is survived by the get's retries; the result still
// matches the baseline bit for bit. An attempt's first failing spec ends
// it, so one get may meet all six failing matches, one per attempt: the
// policy gives it a seventh.
func TestChaosSequentialDarkWindowHeals(t *testing.T) {
	pol := chaosRetry()
	pol.MaxAttempts = 7
	baseline, _ := runSequentialWorkload(t, pol, nil)
	plan := mustPlan(t,
		`{"seed": 3, "rules": [{"op": "read", "mode": "error", "from_op": 3, "to_op": 9}]}`)
	got, fw := runSequentialWorkload(t, pol, plan)
	if !reflect.DeepEqual(got, baseline) {
		t.Fatal("faulty run diverged from the fault-free baseline")
	}
	// The window is six matches wide and every one of them fires.
	if fw.FaultsInjected() != 6 {
		t.Fatalf("FaultsInjected = %d, want 6", fw.FaultsInjected())
	}
}

// Delaying shared-memory sends perturbs timing (collectives, control
// messages) without failing anything; combined with read drops the run
// still converges to the baseline bytes.
func TestChaosShmSendDelaysAndDrops(t *testing.T) {
	baseline, _ := runConcurrentWorkload(t, nil)
	plan := mustPlan(t, `{"seed": 11, "rules": [
		{"op": "send", "medium": "shm", "mode": "delay", "delay_us": 20, "prob": 0.25, "max": 200},
		{"op": "read", "mode": "error", "prob": 0.05, "max": 40}]}`)
	got, _ := runConcurrentWorkload(t, plan)
	if !reflect.DeepEqual(got, baseline) {
		t.Fatal("faulty run diverged from the fault-free baseline")
	}
	if plan.Delayed() == 0 {
		t.Fatal("seeded plan delayed no sends")
	}
}

// With the registry enabled, a faulty run leaves a nonzero retry and
// recovery trail in the cods.pull counters.
func TestChaosRetryCountersVisible(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	retries0 := obs.Default.Counter("cods.pull.retries").Value()
	recovs0 := obs.Default.Counter("cods.pull.recoveries").Value()
	plan := mustPlan(t,
		`{"seed": 42, "rules": [{"op": "read", "mode": "drop", "prob": 0.1, "max": 40}]}`)
	if _, fw := runConcurrentWorkload(t, plan); fw.FaultsInjected() == 0 {
		t.Fatal("seeded plan injected no faults")
	}
	if d := obs.Default.Counter("cods.pull.retries").Value() - retries0; d == 0 {
		t.Fatal("cods.pull.retries did not move")
	}
	if d := obs.Default.Counter("cods.pull.recoveries").Value() - recovs0; d == 0 {
		t.Fatal("cods.pull.recoveries did not move")
	}
}
