package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// withObs runs f with observability enabled, restoring the previous state.
func withObs(t *testing.T, f func()) {
	t.Helper()
	prev := Enabled()
	Enable(true)
	defer Enable(prev)
	f()
}

func TestCounterDisabledIsNoop(t *testing.T) {
	r := newRegistry()
	c := r.Counter("x")
	Enable(false)
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("disabled counter = %d, want 0", c.Value())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	withObs(t, func() {
		r := newRegistry()
		c := r.Counter("ops")
		if again := r.Counter("ops"); again != c {
			t.Fatal("Counter not idempotent")
		}
		c.Add(3)
		c.Inc()
		if c.Value() != 4 {
			t.Fatalf("counter = %d, want 4", c.Value())
		}
		g := r.Gauge("depth")
		g.Set(7)
		g.Add(-2)
		if g.Value() != 5 {
			t.Fatalf("gauge = %d, want 5", g.Value())
		}
	})
}

func TestHistogramBuckets(t *testing.T) {
	withObs(t, func() {
		r := newRegistry()
		h := r.Histogram("lat", []int64{10, 100, 1000})
		for _, v := range []int64{1, 10, 11, 100, 5000} {
			h.Observe(v)
		}
		if h.Count() != 5 || h.Sum() != 5122 {
			t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
		}
		snap := r.Snapshot()
		if len(snap.Histograms) != 1 {
			t.Fatalf("histograms = %+v", snap.Histograms)
		}
		got := map[int64]int64{}
		for _, b := range snap.Histograms[0].Buckets {
			got[b.UpperBound] = b.Count
		}
		// 1,10 <= 10; 11,100 <= 100; 5000 overflows.
		if got[10] != 2 || got[100] != 2 || got[overflowBound] != 1 {
			t.Fatalf("buckets = %v", got)
		}
	})
}

func TestRegistryConcurrent(t *testing.T) {
	withObs(t, func() {
		r := newRegistry()
		const workers = 8
		const perWorker = 1000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := r.Counter("shared")
				h := r.Histogram("hist", DefaultLatencyBounds())
				for i := 0; i < perWorker; i++ {
					c.Inc()
					h.Observe(int64(i))
					r.Gauge("g").Set(int64(i))
				}
			}()
		}
		wg.Wait()
		if got := r.Counter("shared").Value(); got != workers*perWorker {
			t.Fatalf("counter = %d, want %d", got, workers*perWorker)
		}
		if got := r.Histogram("hist", nil).Count(); got != workers*perWorker {
			t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
		}
	})
}

// TestEnableRace flips the global switch while writers hammer instruments;
// the counters must stay torn-free under -race (exact totals depend on
// timing and are not asserted).
func TestEnableRace(t *testing.T) {
	prev := Enabled()
	defer Enable(prev)
	r := newRegistry()
	c := r.Counter("racy")
	h := r.Histogram("racy_h", []int64{10})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(5)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		Enable(i%2 == 0)
	}
	close(stop)
	wg.Wait()
}

func TestResetKeepsPointersValid(t *testing.T) {
	withObs(t, func() {
		r := newRegistry()
		c := r.Counter("c")
		h := r.Histogram("h", []int64{10})
		c.Add(9)
		h.Observe(3)
		r.Reset()
		if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
			t.Fatal("Reset left residue")
		}
		c.Inc()
		if c.Value() != 1 {
			t.Fatal("held pointer dead after Reset")
		}
	})
}

func TestWriteTextStable(t *testing.T) {
	withObs(t, func() {
		r := newRegistry()
		r.Counter("b.ops").Add(2)
		r.Counter("a.ops").Add(1)
		r.Gauge("depth").Set(3)
		r.Histogram("lat", []int64{10}).Observe(4)
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		ia, ib := strings.Index(out, "a.ops"), strings.Index(out, "b.ops")
		if ia < 0 || ib < 0 || ia > ib {
			t.Fatalf("counters unsorted:\n%s", out)
		}
		for _, want := range []string{"gauge", "depth", "hist", "lat", "count=1"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in:\n%s", want, out)
			}
		}
	})
}

func TestSnapshotDisabledFlag(t *testing.T) {
	Enable(false)
	if newRegistry().Snapshot().Enabled {
		t.Fatal("snapshot claims enabled")
	}
}
