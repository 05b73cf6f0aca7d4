package conformance

import (
	"fmt"

	"github.com/insitu/cods/internal/geometry"
)

// refStream is the cursor and watermark mirror of the streaming coupling
// semantics (DESIGN §5i), layered over the versioned refModel exactly as a
// real stream is state on its staged-table variable: version n of the
// stream is every producer rank's nth published block, the complete
// watermark is the highest version every rank has staged, and retirement
// — whether consumed or forced by the drop-oldest policy — is the model's
// Retire, so a later get of the version fails as a retired one does.
//
// Like the refModel it is single-threaded by design: the conformance driver
// applies the same operations to both sides in the same order and
// compares watermarks, floors, cursor positions, per-version accounting
// and bytes.
type refStream struct {
	m      *refModel
	v      string
	maxLag int
	drop   bool

	pub    []int
	closed []bool
	latest int

	cursors map[int]int // subscriber id -> lowest unacknowledged version
	nextSub int

	published, consumed, dropped int64
}

// newRefStream declares a stream over variable v of the model, with the same
// shape parameters as the real StreamConfig (drop selects drop-oldest
// over backpressure).
func newRefStream(m *refModel, v string, producers, maxLag int, drop bool) *refStream {
	return &refStream{
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
func (s *refStream) minPos() int {
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

func (s *refStream) complete() int {
	min := s.pub[0]
	for _, n := range s.pub[1:] {
		if n < min {
			min = n
		}
	}
	return min - 1
}

// Publish stamps producer rank's next version with one block. It returns
// the version stamped. A watermark advance under the drop-oldest policy
// force-retires versions older than maxLag behind, bumping lagging
// cursors past them and counting each skipped version as dropped.
func (s *refStream) Publish(producer int, region geometry.BBox, owner int, data []float64) (int, error) {
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
		for v := s.Floor(); v < bound; v++ {
			for id, pos := range s.cursors {
				if pos <= v {
					s.cursors[id] = v + 1
					s.dropped++
				}
			}
		}
		s.m.Retire(s.v, bound)
	}
	return ver, nil
}

// ClosePublisher marks producer rank's sequence finished.
func (s *refStream) ClosePublisher(producer int) { s.closed[producer] = true }

// Subscribe opens a cursor at version from, clamped up to the floor, and
// returns its id and starting position.
func (s *refStream) Subscribe(from int) (id, pos int) {
	pos = max(from, s.Floor())
	id = s.nextSub
	s.nextSub++
	s.cursors[id] = pos
	return id, pos
}

// Close removes a cursor.
func (s *refStream) Close(id int) error {
	if _, ok := s.cursors[id]; !ok {
		return fmt.Errorf("refmodel: stream %q: no cursor %d", s.v, id)
	}
	delete(s.cursors, id)
	return nil
}

// Pos returns a cursor's position.
func (s *refStream) Pos(id int) (int, error) {
	pos, ok := s.cursors[id]
	if !ok {
		return 0, fmt.Errorf("refmodel: stream %q: no cursor %d", s.v, id)
	}
	return pos, nil
}

// Latest returns the complete watermark; Floor the lowest retained
// version.
func (s *refStream) Latest() int { return s.latest }
func (s *refStream) Floor() int  { return s.m.floors[s.v] }

// Stats returns the per-version accounting.
func (s *refStream) Stats() (published, consumed, dropped int64) {
	return s.published, s.consumed, s.dropped
}

// Advance acknowledges every version below to for a cursor, then retires
// versions every cursor has passed.
func (s *refStream) Advance(id, to int) error {
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
	s.m.Retire(s.v, s.minPos())
	return nil
}
