// Package obs is the framework's observability substrate: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms) plus a lightweight span tracer (span.go) and a
// structured run report (report.go).
//
// The paper's whole evaluation (Section V) is built on knowing where bytes
// move and where time goes — network vs. shared-memory volume, schedule
// computation cost, end-to-end coupling latency. Instead of re-adding
// ad-hoc printf counters in every layer, the hot paths (transport, dht,
// sfc, cods, runtime) register their instruments here once and every tool
// reads from one place.
//
// Cost model: instruments are resolved to pointers at package init, so a
// hot-path update is one atomic add guarded by one atomic load of the
// global enable flag. With observability disabled (the default) the update
// is just that load-and-branch, which is why the pull engine can stay
// instrumented permanently. TestPlaneCosts/distributed-obs
// (internal/transport/tcpnet) holds the enabled plane to the wire bytes and
// flows of a disabled one and to a bounded number of allocations per get;
// its time is the repo benchmark's trace.overhead_ratio. All operations are
// safe under -race.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the global on/off switch. Disabled instruments drop updates
// after a single atomic load.
var enabled atomic.Bool

// Enable turns metric collection on or off globally (default off).
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when observability is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores the gauge value when observability is enabled.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta when observability is enabled.
func (g *Gauge) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with atomic bucket counters. The
// bounds are inclusive upper bucket edges; one implicit overflow bucket
// catches everything above the last bound. Bounds are fixed at creation so
// Observe never allocates or locks.
type Histogram struct {
	name   string
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one sample when observability is enabled.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	// Binary search the first bound >= v; bucket lists are short (<=32)
	// so a linear scan would also do, but this keeps large histograms
	// honest.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// DefaultLatencyBounds are nanosecond bucket edges from 1us to ~1s in
// powers of four, fitting both in-process copies and simulated RDMA round
// trips.
func DefaultLatencyBounds() []int64 {
	out := make([]int64, 0, 16)
	for b := int64(1_000); b <= 4_000_000_000; b *= 4 {
		out = append(out, b)
	}
	return out
}

// DefaultSizeBounds are byte bucket edges from 64 B to 1 GiB in powers of
// four.
func DefaultSizeBounds() []int64 {
	out := make([]int64, 0, 16)
	for b := int64(64); b <= 1<<30; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Registry holds named instruments. Get-or-create methods are safe for
// concurrent use; hot paths resolve instruments once and keep the pointer.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// newRegistry creates an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the framework's packages register
// their instruments in.
var Default = newRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		bs := append([]int64(nil), bounds...)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{name: name, bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
		r.histograms[name] = h
	}
	return h
}

// C is shorthand for Default.Counter.
func C(name string) *Counter { return Default.Counter(name) }

// G is shorthand for Default.Gauge.
func G(name string) *Gauge { return Default.Gauge(name) }

// H is shorthand for Default.Histogram.
func H(name string, bounds []int64) *Histogram { return Default.Histogram(name, bounds) }

// Reset zeroes every instrument in the registry (instruments stay
// registered, so held pointers remain valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
		h.n.Store(0)
	}
}

// BucketSnap is one histogram bucket of a snapshot. UpperBound is the
// inclusive edge; the overflow bucket has UpperBound math.MaxInt64.
type BucketSnap struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnap is the snapshot of one histogram.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, sorted by name.
type Snapshot struct {
	Enabled    bool             `json:"enabled"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Gauges     map[string]int64 `json:"gauges,omitempty"`
	Histograms []HistogramSnap  `json:"histograms,omitempty"`
}

const overflowBound = int64(^uint64(0) >> 1) // math.MaxInt64 without the import

// Snapshot copies every instrument's current value. Counters updated
// concurrently are read atomically, one by one: the snapshot is a
// consistent set of individually consistent values, not a global fence.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Enabled: Enabled()}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	for _, h := range r.histograms {
		hs := HistogramSnap{Name: h.name, Count: h.Count(), Sum: h.Sum()}
		for i := range h.counts {
			ub := overflowBound
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			if n := h.counts[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, BucketSnap{UpperBound: ub, Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText renders the registry in a stable, line-oriented text form
// (sorted by instrument name), for terminals and test goldens.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "counter %-44s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "gauge   %-44s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		mean := int64(0)
		if h.Count > 0 {
			mean = h.Sum / h.Count
		}
		if _, err := fmt.Fprintf(w, "hist    %-44s count=%d sum=%d mean=%d\n",
			h.Name, h.Count, h.Sum, mean); err != nil {
			return err
		}
	}
	return nil
}
