// Streaming coupling (DESIGN §5i): a producer publishes monotonically
// versioned regions of a declared stream variable and consumers subscribe
// with a bounded lag, reading windows of versions instead of lock-step
// iterations.
//
// Versions are stamped per producer rank: version n of the stream is the
// union of every rank's nth publish, and the stream's complete watermark
// is min over ranks of their published count, minus one — the highest
// version every rank has fully staged. Each published block rides the
// ordinary sequential path (exposed buffer + DHT location record + staged
// table record), so windowed gets reuse the schedule, retry and
// scatter-gather machinery unchanged; the stream layer only adds version
// bookkeeping and the lag policy, and decides when versions retire.
//
// The lag policy bounds how far a producer may run ahead of the slowest
// cursor: under Backpressure the producer blocks, under DropOldest the
// watermark advance force-retires versions older than maxLag behind and
// bumps lagging cursors past them (each skipped version counts as dropped
// for that cursor). A version every cursor has passed retires too (an
// advance is a release). Retirement is the staged table's (staged.go): the
// version's blocks are withdrawn from the block stores and the DHT and the
// floor rises, so a get of a retired version fails with ErrRetired instead
// of pulling stale data, while cached schedules stay valid for the next
// version.
package cods

import (
	"errors"
	"fmt"
	"sync"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
)

// Streaming registry instruments: versions published across all streams,
// versions acknowledged by cursors, versions skipped by lagging cursors
// under the drop-oldest policy, and retired blocks whose withdrawal failed.
var (
	obsStreamPublished    = obs.C("cods.stream.published")
	obsStreamConsumed     = obs.C("cods.stream.consumed")
	obsStreamDropped      = obs.C("cods.stream.dropped")
	obsStreamRetireErrors = obs.C("cods.stream.retire_errors")
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

// stream is the per-variable streaming state. All fields below mu are
// guarded by it; cond is signalled on every watermark or cursor movement.
type stream struct {
	sp  *Space
	v   string
	cfg StreamConfig

	mu   sync.Mutex
	cond *sync.Cond
	// pub[i] is the number of versions rank i has fully staged; closed[i]
	// is set once rank i called ClosePublisher.
	pub    []int
	closed []bool
	// latest is the complete watermark (min over pub, minus one). The
	// lowest retained version is the staged table's floor of v, raised
	// under mu.
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
	sp.streamMu.Lock()
	defer sp.streamMu.Unlock()
	if sp.streams == nil {
		sp.streams = make(map[string]*stream)
	}
	if _, ok := sp.streams[v]; ok {
		return fmt.Errorf("cods: stream %q already declared", v)
	}
	s := &stream{
		sp:      sp,
		v:       v,
		cfg:     cfg,
		pub:     make([]int, cfg.Producers),
		closed:  make([]bool, cfg.Producers),
		latest:  -1,
		cursors: make(map[int]*Cursor),
		lag:     obs.G("cods.stream.lag." + v),
	}
	s.cond = sync.NewCond(&s.mu)
	sp.streams[v] = s
	return nil
}

// stream looks up a declared stream.
func (sp *Space) stream(v string) (*stream, error) {
	sp.streamMu.Lock()
	s := sp.streams[v]
	sp.streamMu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("cods: stream %q not declared", v)
	}
	return s, nil
}

// StreamStats sums the per-version accounting over every declared stream:
// versions published, versions acknowledged by cursors, versions dropped
// past lagging cursors. The run report reconciles these against the
// registry counters.
func (sp *Space) StreamStats() (published, consumed, dropped int64) {
	sp.streamMu.Lock()
	streams := make([]*stream, 0, len(sp.streams))
	for _, s := range sp.streams {
		streams = append(streams, s)
	}
	sp.streamMu.Unlock()
	for _, s := range streams {
		s.mu.Lock()
		published += s.published
		consumed += s.consumed
		dropped += s.dropped
		s.mu.Unlock()
	}
	return
}

// StreamState reports stream v's complete watermark and lowest retained
// version.
func (sp *Space) StreamState(v string) (latest, floor int, err error) {
	s, err := sp.stream(v)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, sp.floor(v), nil
}

// ClosePublisher marks producer rank's version sequence finished. Once
// every rank has closed, the stream has ended: blocked windowed gets
// return ErrStreamEnded past the final watermark and further publishes
// fail. Closing a rank twice is an error.
func (sp *Space) ClosePublisher(v string, producer int) error {
	s, err := sp.stream(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if producer < 0 || producer >= len(s.closed) {
		return fmt.Errorf("cods: stream %q: producer %d out of range [0,%d)", v, producer, len(s.closed))
	}
	if s.closed[producer] {
		return fmt.Errorf("cods: stream %q: producer %d already closed", v, producer)
	}
	s.closed[producer] = true
	s.cond.Broadcast()
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

// completeLocked recomputes the watermark: the highest version every
// producer rank has staged.
func (s *stream) completeLocked() int {
	min := s.pub[0]
	for _, n := range s.pub[1:] {
		if n < min {
			min = n
		}
	}
	return min - 1
}

// endedLocked reports whether every producer rank has closed.
func (s *stream) endedLocked() bool {
	for _, c := range s.closed {
		if !c {
			return false
		}
	}
	return true
}

// updateLagLocked refreshes cods.stream.lag.<var>: how many versions the
// slowest cursor trails the watermark by, the quantity backpressure acts on
// (0 with no cursor subscribed). It is one gauge per stream, so cursors that
// come and go never grow the registry.
func (s *stream) updateLagLocked() {
	s.lag.Set(int64(max(0, s.latest+1-s.minPosLocked())))
}

// gcConsumedLocked retires every version all cursors have passed. With no
// cursor subscribed nothing is collected (nobody has acknowledged
// anything). The records are returned for withdrawal outside the lock.
func (s *stream) gcConsumedLocked() []*record {
	if len(s.cursors) == 0 {
		return nil
	}
	return s.sp.retireBelow(s.v, s.minPosLocked())
}

// dropOldestLocked applies the drop policy after a watermark advance:
// versions older than MaxLag behind latest are force-retired and every
// cursor still at or below them is bumped past, counting each skipped
// version as dropped for that cursor.
func (s *stream) dropOldestLocked() []*record {
	bound := s.latest - s.cfg.MaxLag + 1
	if mutate.Enabled(mutate.GCBeforeConsume) {
		bound++ // seeded defect: retire one version consumers were still entitled to
	}
	for v := s.sp.floor(s.v); v < bound; v++ {
		for _, c := range s.cursors {
			if c.pos <= v {
				c.pos = v + 1
				s.dropped++
				obsStreamDropped.Inc()
			}
		}
	}
	return s.sp.retireBelow(s.v, bound)
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
	s, err := h.sp.stream(v)
	if err != nil {
		return 0, err
	}
	if err := validatePut(v, region, data); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if producer < 0 || producer >= len(s.pub) {
		s.mu.Unlock()
		return 0, fmt.Errorf("cods: stream %q: producer %d out of range [0,%d)", v, producer, len(s.pub))
	}
	if s.closed[producer] {
		s.mu.Unlock()
		return 0, fmt.Errorf("cods: stream %q: publish on closed producer %d: %w", v, producer, ErrStreamEnded)
	}
	ver := s.pub[producer]
	if s.cfg.Policy == Backpressure {
		for len(s.cursors) > 0 && ver-s.minPosLocked() >= s.cfg.MaxLag {
			s.cond.Wait()
		}
	}
	s.mu.Unlock()

	if err := h.PutSequential(v, ver, region, data); err != nil {
		return 0, err
	}

	s.mu.Lock()
	s.pub[producer] = ver + 1
	s.published++
	obsStreamPublished.Inc()
	was := s.latest
	s.latest = s.completeLocked()
	advanced := s.latest > was
	var recs []*record
	if advanced && s.cfg.Policy == DropOldest {
		recs = s.dropOldestLocked()
	}
	if advanced {
		s.updateLagLocked()
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	s.sp.withdraw(recs, "stream:gc")
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
	s *stream

	// id and pos are guarded by s.mu (the drop policy bumps pos from
	// publishing goroutines).
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
	s, err := h.sp.stream(v)
	if err != nil {
		return nil, err
	}
	if from < 0 {
		return nil, fmt.Errorf("cods: stream %q: subscribe from negative version %d", v, from)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := max(from, h.sp.floor(v))
	if from > 0 && mutate.Enabled(mutate.VersionSkipOnResubscribe) {
		pos++ // seeded defect: resume one version past the requested position
	}
	c := &Cursor{h: h, s: s, id: s.nextSub, pos: pos}
	s.nextSub++
	s.cursors[c.id] = c
	s.updateLagLocked()
	s.cond.Broadcast() // a new slowest cursor may re-constrain producers
	return c, nil
}

// ID returns the cursor's subscriber id.
func (c *Cursor) ID() int { return c.id }

// Pos returns the lowest version the cursor has not acknowledged.
func (c *Cursor) Pos() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.pos
}

// Floor returns the stream's lowest retained version.
func (c *Cursor) Floor() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.sp.floor(c.s.v)
}

// Latest returns the stream's complete watermark (-1 before the first
// complete version).
func (c *Cursor) Latest() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.latest
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
// before its get began then fails with ErrRetired. Lock-step consumers (advance before the producer's next
// publish burst) never observe this.
func (c *Cursor) GetWindow(region geometry.BBox, from, to int) ([][]float64, error) {
	s := c.s
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("cods: stream %q: get on closed cursor %d", s.v, c.id)
	}
	if to < from {
		s.mu.Unlock()
		return nil, fmt.Errorf("cods: stream %q: inverted window [%d,%d]", s.v, from, to)
	}
	if floor := s.sp.floor(s.v); from < c.pos || from < floor {
		s.mu.Unlock()
		return nil, fmt.Errorf("cods: stream %q: window start %d behind cursor %d / floor %d (retired)",
			s.v, from, c.pos, floor)
	}
	for s.latest < to && !s.endedLocked() {
		s.cond.Wait()
	}
	if s.latest < to {
		s.mu.Unlock()
		return nil, fmt.Errorf("cods: stream %q: window [%d,%d] past final watermark %d: %w",
			s.v, from, to, s.latest, ErrStreamEnded)
	}
	s.mu.Unlock()

	out := make([][]float64, 0, to-from+1)
	for ver := from; ver <= to; ver++ {
		data, err := c.h.GetSequential(s.v, ver, region)
		if err != nil {
			return nil, fmt.Errorf("cods: stream %q v%d: %w", s.v, ver, err)
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
	s := c.s
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("cods: stream %q: get on closed cursor %d", s.v, c.id)
	}
	for s.latest < 0 && !s.endedLocked() {
		s.cond.Wait()
	}
	if s.latest < 0 {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("cods: stream %q: no complete version: %w", s.v, ErrStreamEnded)
	}
	ver := s.latest
	if mutate.Enabled(mutate.StaleWatermarkServed) && ver > s.sp.floor(s.v) {
		ver-- // seeded defect: serve one behind the watermark while retained
	}
	s.mu.Unlock()
	data, err := c.h.GetSequential(s.v, ver, region)
	if err != nil {
		return nil, 0, fmt.Errorf("cods: stream %q v%d: %w", s.v, ver, err)
	}
	return data, ver, nil
}

// Advance acknowledges every version below to: the cursor position moves
// up, the versions are counted consumed, and versions every cursor has
// passed are retired. Producers blocked on backpressure re-check the lag.
func (c *Cursor) Advance(to int) error {
	s := c.s
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		return fmt.Errorf("cods: stream %q: advance on closed cursor %d", s.v, c.id)
	}
	if to < c.pos {
		s.mu.Unlock()
		return fmt.Errorf("cods: stream %q: advance to %d behind cursor %d", s.v, to, c.pos)
	}
	if to > s.latest+1 {
		s.mu.Unlock()
		return fmt.Errorf("cods: stream %q: advance to %d past watermark %d", s.v, to, s.latest)
	}
	delta := int64(to - c.pos)
	c.pos = to
	s.consumed += delta
	obsStreamConsumed.Add(delta)
	s.updateLagLocked()
	recs := s.gcConsumedLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	s.sp.withdraw(recs, "stream:gc")
	return nil
}

// Close removes the cursor from the stream. Retained versions stay until
// another cursor (or the drop policy) retires them; a consumer resuming
// later passes its position to SubscribeFrom.
func (c *Cursor) Close() error {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cods: stream %q: cursor %d already closed", s.v, c.id)
	}
	c.closed = true
	delete(s.cursors, c.id)
	s.updateLagLocked()
	s.cond.Broadcast() // producers constrained by this cursor re-check
	return nil
}
