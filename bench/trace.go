package main

// In-memory span recording for the traced run. The bench records a span
// around every call it makes into the program (name, start, end, parent,
// step id), keeps them in memory and writes them out as JSON Lines when
// the run ends. A layer's time is its spans' self time: duration minus the
// part of the interval its child spans cover.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans; start and finish are safe for the concurrent
// per-node batches of a decomposed get.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (ids are 1-based; 0 is "no span").
func (r *recorder) start(name string, parent, step int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Step: step, Start: now})
	return len(r.spans)
}

func (r *recorder) finish(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// write dumps the spans to path as JSON Lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns, per span name, every span's duration and self time in
// microseconds. Self time subtracts the union of the child intervals, so
// children that ran in parallel are not subtracted twice.
func (r *recorder) durations() (total, self map[string][]float64) {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total = make(map[string][]float64)
	self = make(map[string][]float64)
	for _, s := range r.spans {
		d := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		total[s.Name] = append(total[s.Name], float64(d)/1e3)
		self[s.Name] = append(self[s.Name], float64(d-covered)/1e3)
	}
	return total, self
}

// spanStat summarises the spans of one name.
type spanStat struct {
	N         int     `json:"n"`
	P50Us     float64 `json:"p50_us"`
	SelfP50Us float64 `json:"self_p50_us"`
}

// stats returns the per-name summary of every recorded span.
func (r *recorder) stats() map[string]spanStat {
	total, self := r.durations()
	out := make(map[string]spanStat, len(total))
	for name, d := range total {
		out[name] = spanStat{N: len(d), P50Us: median(d), SelfP50Us: median(self[name])}
	}
	return out
}

// stepCtx times the calls of one step. A step's time is the sum of the
// durations of its calls into the program; filling buffers, verifying and
// bookkeeping between the calls is not counted.
type stepCtx struct {
	rec       *recorder // nil when untraced
	step      int
	root      int  // the step's own span
	decompose bool // replace each get by the decomposed get
	dur       time.Duration
}

// call runs f as one timed call of the step; f receives its span id.
func (sc *stepCtx) call(name string, f func(span int) error) error {
	id := 0
	if sc.rec != nil {
		id = sc.rec.start(name, sc.root, sc.step)
	}
	t0 := time.Now()
	err := f(id)
	sc.dur += time.Since(t0)
	if sc.rec != nil {
		sc.rec.finish(id)
	}
	return err
}

// sub records a nested span around f when tracing (no timing of its own:
// the enclosing call is what counts towards the step).
func (sc *stepCtx) sub(name string, parent int, f func(span int) error) error {
	if sc.rec == nil {
		return f(0)
	}
	id := sc.rec.start(name, parent, sc.step)
	err := f(id)
	sc.rec.finish(id)
	return err
}
