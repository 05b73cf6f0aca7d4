// Streaming coupling (DESIGN §5i): a producer publishes monotonically
// versioned regions of a declared stream variable and consumers subscribe
// with a bounded lag, reading windows of versions instead of lock-step
// iterations.
//
// A stream is state on its variable in the staged table (staged.go),
// guarded by the table's one lock and woken by its one condition. Versions
// are stamped per producer rank: version n of the stream is the union of
// every rank's nth publish, and the complete watermark is min over ranks of
// their published count, minus one. Each published block rides the
// ordinary sequential path, so windowed gets reuse the schedule, retry and
// scatter-gather machinery unchanged.
//
// A cursor is a reader: its Advance releases the versions it passes, and
// they retire through the table's one path — on the last declared reader's
// release, or, with no readers declared, once every cursor has passed them.
// Under Backpressure a producer waits while the slowest cursor trails by
// MaxLag; under DropOldest the watermark advance force-retires versions
// older than MaxLag behind and bumps lagging cursors past them (each
// skipped version counts as dropped for that cursor).
package cods

import (
	"errors"
	"fmt"
	"slices"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
)

// Streaming registry instruments: versions published across all streams,
// versions acknowledged by cursors and versions skipped by lagging cursors
// under the drop-oldest policy.
var (
	obsStreamPublished = obs.C("cods.stream.published")
	obsStreamConsumed  = obs.C("cods.stream.consumed")
	obsStreamDropped   = obs.C("cods.stream.dropped")
)

// ErrStreamEnded reports an operation against a stream whose producers
// have all closed: a publish after close, or a windowed get extending past
// the final watermark.
var ErrStreamEnded = errors.New("cods: stream ended")

// StreamPolicy selects what happens when a consumer falls more than
// MaxLag versions behind the watermark.
type StreamPolicy int

const (
	// Backpressure blocks the producer until the slowest cursor catches
	// up to within MaxLag versions.
	Backpressure StreamPolicy = iota
	// DropOldest keeps the producer running and force-retires versions
	// older than MaxLag behind the watermark, bumping lagging cursors
	// past them; every version a cursor is bumped over counts as dropped.
	DropOldest
)

// String names the policy for flags and logs.
func (p StreamPolicy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case DropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("StreamPolicy(%d)", int(p))
}

// StreamConfig declares a stream's shape: how many producer ranks stamp
// versions, the lag bound, and the policy applied when it is exceeded.
type StreamConfig struct {
	// Producers is the number of producer ranks; each rank stamps its own
	// monotone version sequence and version n is complete once every rank
	// has published its nth block.
	Producers int
	// MaxLag bounds how many versions a consumer may trail the watermark
	// (equivalently, how many unconsumed versions are retained).
	MaxLag int
	// Policy is applied when the bound would be exceeded.
	Policy StreamPolicy
}

// stream is a declared stream's state on its variable, guarded by the
// table's lock.
type stream struct {
	cfg StreamConfig
	// pub[i] is the number of versions rank i has fully staged; closed[i]
	// is set once rank i called ClosePublisher.
	pub    []int
	closed []bool
	// latest is the complete watermark (min over pub, minus one).
	latest int
	// cursors are the live subscriptions, keyed by subscriber id.
	cursors map[int]*Cursor
	nextSub int
	// Per-stream accounting, mirrored by the reference model.
	published, consumed, dropped int64
	// lag is the stream's one lag gauge (updateLagLocked).
	lag *obs.Gauge
}

// DeclareStream registers a stream for variable v. It must be called once,
// before any publish or subscribe, with the full producer count; declaring
// the same variable twice is an error.
func (sp *Space) DeclareStream(v string, cfg StreamConfig) error {
	if v == "" {
		return fmt.Errorf("cods: empty stream variable name")
	}
	if cfg.Producers < 1 {
		return fmt.Errorf("cods: stream %q: producers %d < 1", v, cfg.Producers)
	}
	if cfg.MaxLag < 1 {
		return fmt.Errorf("cods: stream %q: max lag %d < 1", v, cfg.MaxLag)
	}
	if cfg.Policy != Backpressure && cfg.Policy != DropOldest {
		return fmt.Errorf("cods: stream %q: unknown policy %d", v, int(cfg.Policy))
	}
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	s := sp.staged.varLocked(v)
	if s.stream != nil {
		return fmt.Errorf("cods: stream %q already declared", v)
	}
	s.stream = &stream{
		cfg:     cfg,
		pub:     make([]int, cfg.Producers),
		closed:  make([]bool, cfg.Producers),
		latest:  -1,
		cursors: make(map[int]*Cursor),
		lag:     obs.G("cods.stream.lag." + v),
	}
	return nil
}

// streamLocked looks up v's declared stream.
func (t *table) streamLocked(v string) (*variable, error) {
	if s := t.vars[v]; s != nil && s.stream != nil {
		return s, nil
	}
	return nil, fmt.Errorf("cods: stream %q not declared", v)
}

// StreamStats sums the per-version accounting over every declared stream:
// versions published, versions acknowledged by cursors, versions dropped
// past lagging cursors. The run report reconciles these against the
// registry counters.
func (sp *Space) StreamStats() (published, consumed, dropped int64) {
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	for _, s := range sp.staged.vars {
		if s.stream != nil {
			published += s.published
			consumed += s.consumed
			dropped += s.dropped
		}
	}
	return
}

// StreamState reports stream v's complete watermark and lowest retained
// version.
func (sp *Space) StreamState(v string) (latest, floor int, err error) {
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	s, err := sp.staged.streamLocked(v)
	if err != nil {
		return 0, 0, err
	}
	return s.latest, s.floor, nil
}

// ClosePublisher marks producer rank's version sequence finished. Once
// every rank has closed, the stream has ended: blocked windowed gets
// return ErrStreamEnded past the final watermark and further publishes
// fail. Closing a rank twice is an error.
func (sp *Space) ClosePublisher(v string, producer int) error {
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	s, err := sp.staged.streamLocked(v)
	if err != nil {
		return err
	}
	if producer < 0 || producer >= len(s.closed) {
		return fmt.Errorf("cods: stream %q: producer %d out of range [0,%d)", v, producer, len(s.closed))
	}
	if s.closed[producer] {
		return fmt.Errorf("cods: stream %q: producer %d already closed", v, producer)
	}
	s.closed[producer] = true
	sp.staged.cond.Broadcast()
	return nil
}

// minPosLocked returns the lowest cursor position, or latest+1 when no
// cursor is subscribed (an unobserved stream is unconstrained).
func (s *stream) minPosLocked() int {
	min := s.latest + 1
	first := true
	for _, c := range s.cursors {
		if first || c.pos < min {
			min = c.pos
			first = false
		}
	}
	return min
}

// endedLocked reports whether every producer rank has closed.
func (s *stream) endedLocked() bool { return !slices.Contains(s.closed, false) }

// updateLagLocked refreshes cods.stream.lag.<var>: how many versions the
// slowest cursor trails the watermark by, the quantity backpressure acts on
// (0 with no cursor subscribed). It is one gauge per stream, so cursors that
// come and go never grow the registry.
func (s *stream) updateLagLocked() {
	s.lag.Set(int64(max(0, s.latest+1-s.minPosLocked())))
}

// dropOldestLocked applies the drop policy after a watermark advance:
// versions older than MaxLag behind latest are force-retired and every
// cursor still at or below them is bumped past, counting each skipped
// version as dropped for that cursor.
func (t *table) dropOldestLocked(s *variable) []*record {
	bound := s.latest - s.cfg.MaxLag + 1
	if mutate.Enabled(mutate.GCBeforeConsume) {
		bound++ // seeded defect: retire one version consumers were still entitled to
	}
	for v := s.floor; v < bound; v++ {
		for _, c := range s.cursors {
			if c.pos <= v {
				c.pos = v + 1
				s.dropped++
				obsStreamDropped.Inc()
			}
		}
	}
	return t.retireLocked(s, bound)
}

// Publish stamps the next version of producer rank's sequence with one
// block and stages it with PutSequential (exposed buffer + DHT record),
// which owns data afterwards. It returns the version stamped. Under the
// Backpressure policy the call blocks while the slowest cursor is MaxLag
// versions behind.
//
// The put rides out a staging node replaced mid-stream under the space's
// retry policy, so the version is stamped once and the task keeps running.
// Publish for a given rank must be called from a single goroutine; distinct
// ranks may publish concurrently.
func (h *Handle) Publish(v string, producer int, region geometry.BBox, data []float64) (int, error) {
	if err := validatePut(v, region, data); err != nil {
		return 0, err
	}
	t := &h.sp.staged
	t.mu.Lock()
	s, err := t.streamLocked(v)
	switch {
	case err != nil:
	case producer < 0 || producer >= len(s.pub):
		err = fmt.Errorf("cods: stream %q: producer %d out of range [0,%d)", v, producer, len(s.pub))
	case s.closed[producer]:
		err = fmt.Errorf("cods: stream %q: publish on closed producer %d: %w", v, producer, ErrStreamEnded)
	}
	if err != nil {
		t.mu.Unlock()
		return 0, err
	}
	ver := s.pub[producer]
	for s.cfg.Policy == Backpressure && len(s.cursors) > 0 && ver-s.minPosLocked() >= s.cfg.MaxLag {
		t.cond.Wait()
	}
	t.mu.Unlock()

	if err := h.PutSequential(v, ver, region, data); err != nil {
		return 0, err
	}

	t.mu.Lock()
	s.pub[producer] = ver + 1
	s.published++
	obsStreamPublished.Inc()
	var recs []*record
	if latest := slices.Min(s.pub) - 1; latest > s.latest { // the highest version every rank staged
		s.latest = latest
		if s.cfg.Policy == DropOldest {
			recs = t.dropOldestLocked(s)
		}
		s.updateLagLocked()
	}
	t.cond.Broadcast()
	t.mu.Unlock()

	h.sp.withdraw(recs, "stream:gc")
	return ver, nil
}

// ClosePublisher marks producer rank's sequence finished through this
// handle's space, so an application subroutine can end its stream without
// reaching around its task context (Space.ClosePublisher).
func (h *Handle) ClosePublisher(v string, producer int) error {
	return h.sp.ClosePublisher(v, producer)
}

// Cursor is one consumer's subscription to a stream: a position (the
// lowest unacknowledged version) advanced explicitly by Advance, plus
// windowed and latest-value reads. A Cursor is not safe for concurrent use
// by multiple goroutines; distinct cursors are independent.
type Cursor struct {
	h *Handle
	v string
	s *variable

	// id, pos and closed are guarded by the table's lock (the drop policy
	// bumps pos from publishing goroutines).
	id     int
	pos    int
	closed bool
}

// Subscribe opens a cursor on stream v starting at the oldest retained
// version.
func (h *Handle) Subscribe(v string) (*Cursor, error) { return h.SubscribeFrom(v, 0) }

// SubscribeFrom opens a cursor positioned at version from, clamped up to
// the stream floor (versions below it are retired). A consumer resuming
// after Close passes its last position to continue gap-free.
func (h *Handle) SubscribeFrom(v string, from int) (*Cursor, error) {
	t := &h.sp.staged
	t.mu.Lock()
	defer t.mu.Unlock()
	s, err := t.streamLocked(v)
	if err != nil {
		return nil, err
	}
	if from < 0 {
		return nil, fmt.Errorf("cods: stream %q: subscribe from negative version %d", v, from)
	}
	pos := max(from, s.floor)
	if from > 0 && mutate.Enabled(mutate.VersionSkipOnResubscribe) {
		pos++ // seeded defect: resume one version past the requested position
	}
	c := &Cursor{h: h, v: v, s: s, id: s.nextSub, pos: pos}
	s.nextSub++
	s.cursors[c.id] = c
	s.updateLagLocked()
	t.cond.Broadcast() // a new slowest cursor may re-constrain producers
	return c, nil
}

// ID returns the cursor's subscriber id.
func (c *Cursor) ID() int { return c.id }

// Pos returns the lowest version the cursor has not acknowledged.
func (c *Cursor) Pos() int {
	c.h.sp.staged.mu.Lock()
	defer c.h.sp.staged.mu.Unlock()
	return c.pos
}

// Floor returns the stream's lowest retained version.
func (c *Cursor) Floor() int {
	c.h.sp.staged.mu.Lock()
	defer c.h.sp.staged.mu.Unlock()
	return c.s.floor
}

// Latest returns the stream's complete watermark (-1 before the first
// complete version).
func (c *Cursor) Latest() int {
	c.h.sp.staged.mu.Lock()
	defer c.h.sp.staged.mu.Unlock()
	return c.s.latest
}

// locked runs fn on the cursor's stream under the table's lock, or fails
// op on a closed cursor.
func (c *Cursor) locked(op string, fn func(t *table, s *variable) error) error {
	t := &c.h.sp.staged
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cods: stream %q: %s on closed cursor %d", c.v, op, c.id)
	}
	return fn(t, c.s)
}

// GetWindow reads versions from..to (inclusive) of region, blocking until
// the watermark reaches to. It returns one row-major slice per version.
// The window must start at or after both the cursor position and the
// stream floor — versions behind either are retired or acknowledged and
// gone. If every producer closes before the watermark reaches to, the
// call fails with ErrStreamEnded.
//
// Under the DropOldest policy a concurrent watermark advance can retire
// versions inside an in-flight window; the read of a version retired
// before its get began then fails with ErrRetired. Lock-step consumers
// (advance before the producer's next publish burst) never observe this.
func (c *Cursor) GetWindow(region geometry.BBox, from, to int) ([][]float64, error) {
	if err := c.locked("get", func(t *table, s *variable) error {
		if to < from {
			return fmt.Errorf("cods: stream %q: inverted window [%d,%d]", c.v, from, to)
		}
		if from < c.pos || from < s.floor {
			return fmt.Errorf("cods: stream %q: window start %d behind cursor %d / floor %d (retired)",
				c.v, from, c.pos, s.floor)
		}
		for s.latest < to && !s.endedLocked() {
			t.cond.Wait()
		}
		if s.latest < to {
			return fmt.Errorf("cods: stream %q: window [%d,%d] past final watermark %d: %w",
				c.v, from, to, s.latest, ErrStreamEnded)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([][]float64, 0, to-from+1)
	for ver := from; ver <= to; ver++ {
		data, err := c.h.GetSequential(c.v, ver, region)
		if err != nil {
			return nil, fmt.Errorf("cods: stream %q v%d: %w", c.v, ver, err)
		}
		out = append(out, data)
	}
	return out, nil
}

// GetLatest reads region at the current complete watermark, blocking until
// the first version completes, and returns the data with the version it
// read. It does not move the cursor. After the stream has ended it serves
// the final watermark; a stream that ended before any complete version
// fails with ErrStreamEnded.
func (c *Cursor) GetLatest(region geometry.BBox) ([]float64, int, error) {
	var ver int
	if err := c.locked("get", func(t *table, s *variable) error {
		for s.latest < 0 && !s.endedLocked() {
			t.cond.Wait()
		}
		if s.latest < 0 {
			return fmt.Errorf("cods: stream %q: no complete version: %w", c.v, ErrStreamEnded)
		}
		ver = s.latest
		if mutate.Enabled(mutate.StaleWatermarkServed) && ver > s.floor {
			ver-- // seeded defect: serve one behind the watermark while retained
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	data, err := c.h.GetSequential(c.v, ver, region)
	if err != nil {
		return nil, 0, fmt.Errorf("cods: stream %q v%d: %w", c.v, ver, err)
	}
	return data, ver, nil
}

// Advance acknowledges every version below to: the cursor position moves
// up and the versions count as consumed. The advance is the cursor's
// release of each version it passes (staged.go's retireLocked says when a
// version retires). Producers blocked on backpressure re-check the lag.
func (c *Cursor) Advance(to int) error {
	var recs []*record
	err := c.locked("advance", func(t *table, s *variable) error {
		if to < c.pos {
			return fmt.Errorf("cods: stream %q: advance to %d behind cursor %d", c.v, to, c.pos)
		}
		if to > s.latest+1 {
			return fmt.Errorf("cods: stream %q: advance to %d past watermark %d", c.v, to, s.latest)
		}
		for ver := c.pos; ver < to; ver++ {
			if r := s.records[ver]; r != nil && r.released < r.readers {
				r.released++
			}
		}
		delta := int64(to - c.pos)
		c.pos = to
		s.consumed += delta
		obsStreamConsumed.Add(delta)
		s.updateLagLocked()
		recs = t.retireLocked(s, s.floor)
		return nil
	})
	c.h.sp.withdraw(recs, "stream:gc")
	return err
}

// Close removes the cursor from the stream. Retained versions stay until
// another cursor (or the drop policy) retires them; a consumer resuming
// later passes its position to SubscribeFrom.
func (c *Cursor) Close() error {
	t, s := &c.h.sp.staged, c.s
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cods: stream %q: cursor %d already closed", c.v, c.id)
	}
	c.closed = true
	delete(s.cursors, c.id)
	s.updateLagLocked()
	t.cond.Broadcast() // producers constrained by this cursor re-check
	return nil
}
