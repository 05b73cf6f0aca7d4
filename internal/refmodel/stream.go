package refmodel

import (
	"fmt"

	"github.com/insitu/cods/internal/geometry"
)

// Stream is the sequential reference of the streaming coupling semantics
// (DESIGN §5i), layered over the versioned Model exactly as the real
// stream layer sits over the sequential put/get path: version n of the
// stream is every producer rank's nth published block, the complete
// watermark is the highest version every rank has staged, and retirement
// — whether consumed or forced by the drop-oldest policy — removes the
// version's blocks from the model so a later get fails its coverage
// check, mirroring the real GC.
//
// Like the Model it is single-threaded by design: the conformance driver
// applies the same operations to both sides in the same order and
// compares watermarks, floors, cursor positions, per-version accounting
// and bytes.
type Stream struct {
	m      *Model
	v      string
	maxLag int
	drop   bool

	pub    []int
	closed []bool
	latest int
	floor  int

	cursors map[int]int // subscriber id -> lowest unacknowledged version
	nextSub int

	published, consumed, dropped int64
}

// NewStream declares a stream over variable v of the model, with the same
// shape parameters as the real StreamConfig (drop selects drop-oldest
// over backpressure).
func NewStream(m *Model, v string, producers, maxLag int, drop bool) *Stream {
	return &Stream{
		m:       m,
		v:       v,
		maxLag:  maxLag,
		drop:    drop,
		pub:     make([]int, producers),
		closed:  make([]bool, producers),
		latest:  -1,
		cursors: make(map[int]int),
	}
}

// minPos returns the lowest cursor position, or latest+1 when no cursor
// is subscribed.
func (s *Stream) minPos() int {
	min := s.latest + 1
	first := true
	for _, pos := range s.cursors {
		if first || pos < min {
			min = pos
			first = false
		}
	}
	return min
}

func (s *Stream) complete() int {
	min := s.pub[0]
	for _, n := range s.pub[1:] {
		if n < min {
			min = n
		}
	}
	return min - 1
}

// retire removes every block of a version from the model.
func (s *Stream) retire(version int) {
	for _, b := range append([]Block(nil), s.m.blocks(s.v, version)...) {
		s.m.Discard(s.v, version, b.Region, b.Owner)
	}
}

// Publish stamps producer rank's next version with one block. It returns
// the version stamped. A watermark advance under the drop-oldest policy
// force-retires versions older than maxLag behind, bumping lagging
// cursors past them and counting each skipped version as dropped.
func (s *Stream) Publish(producer int, region geometry.BBox, owner int, data []float64) (int, error) {
	if producer < 0 || producer >= len(s.pub) {
		return 0, fmt.Errorf("refmodel: stream %q: producer %d out of range", s.v, producer)
	}
	if s.closed[producer] {
		return 0, fmt.Errorf("refmodel: stream %q: producer %d closed", s.v, producer)
	}
	ver := s.pub[producer]
	if err := s.m.Put(s.v, ver, region, owner, data); err != nil {
		return 0, err
	}
	s.pub[producer] = ver + 1
	s.published++
	was := s.latest
	s.latest = s.complete()
	if s.latest > was && s.drop {
		bound := s.latest - s.maxLag + 1
		for v := s.floor; v < bound; v++ {
			for id, pos := range s.cursors {
				if pos <= v {
					s.cursors[id] = v + 1
					s.dropped++
				}
			}
			s.retire(v)
			s.floor = v + 1
		}
	}
	return ver, nil
}

// ClosePublisher marks producer rank's sequence finished.
func (s *Stream) ClosePublisher(producer int) { s.closed[producer] = true }

// Subscribe opens a cursor at version from, clamped up to the floor, and
// returns its id and starting position.
func (s *Stream) Subscribe(from int) (id, pos int) {
	pos = from
	if pos < s.floor {
		pos = s.floor
	}
	id = s.nextSub
	s.nextSub++
	s.cursors[id] = pos
	return id, pos
}

// Close removes a cursor.
func (s *Stream) Close(id int) error {
	if _, ok := s.cursors[id]; !ok {
		return fmt.Errorf("refmodel: stream %q: no cursor %d", s.v, id)
	}
	delete(s.cursors, id)
	return nil
}

// Pos returns a cursor's position.
func (s *Stream) Pos(id int) (int, error) {
	pos, ok := s.cursors[id]
	if !ok {
		return 0, fmt.Errorf("refmodel: stream %q: no cursor %d", s.v, id)
	}
	return pos, nil
}

// Latest returns the complete watermark; Floor the lowest retained
// version.
func (s *Stream) Latest() int { return s.latest }
func (s *Stream) Floor() int  { return s.floor }

// Stats returns the per-version accounting.
func (s *Stream) Stats() (published, consumed, dropped int64) {
	return s.published, s.consumed, s.dropped
}

// GetWindow assembles versions from..to (inclusive) of region, one
// row-major slice per version. The window must start at or after both the
// cursor position and the floor, and end at or below the watermark (the
// model never blocks — the driver only asks for complete versions).
func (s *Stream) GetWindow(id int, region geometry.BBox, from, to int) ([][]float64, error) {
	pos, ok := s.cursors[id]
	if !ok {
		return nil, fmt.Errorf("refmodel: stream %q: no cursor %d", s.v, id)
	}
	if to < from {
		return nil, fmt.Errorf("refmodel: stream %q: inverted window [%d,%d]", s.v, from, to)
	}
	if from < pos || from < s.floor {
		return nil, fmt.Errorf("refmodel: stream %q: window start %d behind cursor %d / floor %d",
			s.v, from, pos, s.floor)
	}
	if to > s.latest {
		return nil, fmt.Errorf("refmodel: stream %q: window end %d past watermark %d", s.v, to, s.latest)
	}
	out := make([][]float64, 0, to-from+1)
	for ver := from; ver <= to; ver++ {
		data, err := s.m.Get(s.v, ver, region)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// GetLatest assembles region at the watermark and returns the version
// read.
func (s *Stream) GetLatest(region geometry.BBox) ([]float64, int, error) {
	if s.latest < 0 {
		return nil, 0, fmt.Errorf("refmodel: stream %q: no complete version", s.v)
	}
	data, err := s.m.Get(s.v, s.latest, region)
	if err != nil {
		return nil, 0, err
	}
	return data, s.latest, nil
}

// Advance acknowledges every version below to for a cursor, then retires
// versions every cursor has passed.
func (s *Stream) Advance(id, to int) error {
	pos, ok := s.cursors[id]
	if !ok {
		return fmt.Errorf("refmodel: stream %q: no cursor %d", s.v, id)
	}
	if to < pos {
		return fmt.Errorf("refmodel: stream %q: advance to %d behind cursor %d", s.v, to, pos)
	}
	if to > s.latest+1 {
		return fmt.Errorf("refmodel: stream %q: advance to %d past watermark %d", s.v, to, s.latest)
	}
	s.consumed += int64(to - pos)
	s.cursors[id] = to
	bound := s.minPos()
	for v := s.floor; v < bound; v++ {
		s.retire(v)
		s.floor = v + 1
	}
	return nil
}
