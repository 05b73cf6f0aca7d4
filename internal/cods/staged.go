// The staged table (DESIGN §5i) is the one record of what is staged: per
// (variable, version) every block a put exposed, with its owner core and
// application, and the readers declared for the version and their
// releases; per variable its floor, its schedule stamp and, once declared,
// its stream (stream.go). One lock guards it all and one condition wakes
// every waiter. A version retires through retireLocked and withdraw alone:
// its blocks are withdrawn, with the location records of the sequential
// ones, and the variable's floor rises. A get below the floor fails at once
// with ErrRetired and a put below it stages nothing. Retirement keeps
// cached schedules: only a discard, or a put of a block at another owner
// than its region's last put, moves the variable's invalidation stamp.
package cods

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
)

// ErrRetired marks a get of a version below its variable's floor.
var ErrRetired = errors.New("cods: version retired")

// StagedBlock is one staged block: enough to re-stage it at its owner, in
// the lookup namespace of its application. Data is a sequential put's own
// slice while the space keeps payloads (SetKeepPayloads), else nil.
type StagedBlock struct {
	Var     string
	Version int
	Region  geometry.BBox
	Owner   cluster.CoreID
	App     int
	Data    []float64
	seq     bool // staged sequentially: it has a location record
}

// record is what is staged of one variable version. With no readers
// declared, releases never retire it.
type record struct {
	blocks            []StagedBlock
	readers, released int
}

// variable is the table's state of one variable: its invalidation stamp,
// its floor, the owner of each region's last put (by exposure name), the
// records at or above the floor and its stream, nil until declared.
type variable struct {
	gen     uint64
	floor   int
	owners  map[string]cluster.CoreID
	records map[int]*record
	*stream
}

// table is the staged table; cond is signalled on every change a waiter
// may wait for: a floor, a watermark, a cursor or a closed producer.
type table struct {
	mu   sync.Mutex
	cond sync.Cond
	keep bool
	vars map[string]*variable
}

func (t *table) varLocked(v string) *variable {
	if t.vars[v] == nil {
		t.vars[v] = &variable{owners: make(map[string]cluster.CoreID), records: make(map[int]*record)}
	}
	return t.vars[v]
}

func (s *variable) recordLocked(version int) *record {
	if s.records[version] == nil {
		s.records[version] = &record{}
	}
	return s.records[version]
}

// SetKeepPayloads makes the table keep the data slice of every sequential
// put from now on, uncopied (the space owns it): what a re-stage after a
// node loss restores (membership.Reconcile).
func (sp *Space) SetKeepPayloads(on bool) {
	sp.staged.mu.Lock()
	sp.staged.keep = on
	sp.staged.mu.Unlock()
}

// Staged returns every sequentially staged block, sorted by variable,
// version, owner and region.
func (sp *Space) Staged() []StagedBlock {
	var out []StagedBlock
	sp.staged.mu.Lock()
	for _, s := range sp.staged.vars {
		for _, r := range s.records {
			for _, b := range r.blocks {
				if b.seq {
					out = append(out, b)
				}
			}
		}
	}
	sp.staged.mu.Unlock()
	slices.SortFunc(out, func(a, b StagedBlock) int {
		return cmp.Or(cmp.Compare(a.Var, b.Var), cmp.Compare(a.Version, b.Version),
			cmp.Compare(a.Owner, b.Owner), geometry.Compare(a.Region, b.Region))
	})
	return out
}

// stamp returns the invalidation stamp a schedule for v computed now
// carries, or ErrRetired for a version below v's floor.
func (sp *Space) stamp(v string, version int) (uint64, error) {
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	s := sp.staged.varLocked(v)
	if version < s.floor {
		return 0, fmt.Errorf("%w: %q v%d is below the floor %d", ErrRetired, v, version, s.floor)
	}
	return s.gen, nil
}

// Floor returns v's floor: every version below it is retired.
func (sp *Space) Floor(v string) int {
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	if s := sp.staged.vars[v]; s != nil {
		return s.floor
	}
	return 0
}

// InvalidateSchedules marks every cached communication schedule of a
// variable stale, forcing the next get to rebuild it.
func (sp *Space) InvalidateSchedules(v string) {
	sp.staged.mu.Lock()
	sp.staged.varLocked(v).gen++
	sp.staged.mu.Unlock()
}

// stage records a block before its put exposes it, or reports false for a
// retired version. A block at another owner than its region's last put
// moves the stamp: a cached schedule would name the old owner.
func (sp *Space) stage(name string, b StagedBlock) bool {
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	s := sp.staged.varLocked(b.Var)
	if b.Version < s.floor {
		return false
	}
	if prev, ok := s.owners[name]; ok && prev != b.Owner {
		s.gen++
	}
	s.owners[name] = b.Owner
	if !b.seq || !sp.staged.keep {
		b.Data = nil
	}
	r := s.recordLocked(b.Version)
	r.blocks = append(r.blocks, b)
	return true
}

// unstage drops the last record of the block of region at owner (a failed
// put, a discard), and the version's record once it holds nothing.
func (sp *Space) unstage(v string, version int, region geometry.BBox, owner cluster.CoreID) {
	sp.staged.mu.Lock()
	defer sp.staged.mu.Unlock()
	s := sp.staged.varLocked(v)
	r := s.records[version]
	if r == nil {
		return
	}
	for i := len(r.blocks) - 1; i >= 0; i-- {
		if r.blocks[i].Owner == owner && r.blocks[i].Region.Equal(region) {
			r.blocks = slices.Delete(r.blocks, i, i+1)
			break
		}
	}
	if len(r.blocks) == 0 && r.readers == 0 && r.released == 0 {
		delete(s.records, version)
	}
}

// retireLocked is the one retirement rule. It raises the floor of s past
// every version below bound (the drop-oldest bound), then past every
// version all its declared readers released and, for a version with no
// readers declared, past every one all of a stream's cursors passed. It
// returns the records it retired for withdrawal outside the lock.
func (t *table) retireLocked(s *variable, bound int) []*record {
	passed := s.floor
	if s.stream != nil && len(s.cursors) > 0 {
		passed = s.minPosLocked()
	}
	var out []*record
	for ; ; s.floor++ {
		r := s.records[s.floor]
		released := r != nil && r.readers > 0 && r.released >= r.readers
		bare := (r == nil || r.readers == 0) && s.floor < passed
		if s.floor >= bound && !released && !bare {
			break
		}
		if r != nil {
			out = append(out, r)
			delete(s.records, s.floor)
		}
	}
	t.cond.Broadcast()
	return out
}

// obsRetireErrors counts retired blocks whose withdrawal failed.
var obsRetireErrors = obs.C("cods.retire_errors")

// withdraw takes the blocks of retired versions out of the space: each
// buffer at its owner, and a sequential block's location record under
// phase. A failed withdrawal is counted and traced, not retried: one
// against a dead node legitimately fails.
func (sp *Space) withdraw(recs []*record, phase string) {
	for _, r := range recs {
		for _, b := range r.blocks {
			err := sp.fabric.Endpoint(b.Owner).Unexpose(bufKey(b.Var, b.Region, b.Version))
			if b.seq {
				err = errors.Join(err, sp.lookup.ClientAt(b.Owner).Remove(phase, b.App,
					dht.Entry{Var: b.Var, Version: b.Version, Region: b.Region, Owner: b.Owner}))
			}
			if err != nil {
				obsRetireErrors.Inc()
				sp.tracer.Load().Event(0, "retire-failed:"+b.Var)
			}
		}
	}
}

// DeclareReaders declares that readers tasks will each Release version of
// v; the last release retires it. Every producer of a version declares the
// same count.
func (h *Handle) DeclareReaders(v string, version, readers int) error {
	if readers < 1 {
		return fmt.Errorf("cods: %q v%d: %d readers declared", v, version, readers)
	}
	return h.sp.release(v, version, readers)
}

// Release is one reader's release of version of v, which it will not read
// again. It may come before the readers are declared.
func (h *Handle) Release(v string, version int) error { return h.sp.release(v, version, 0) }

// release declares readers of version of v, or with readers 0 counts one
// release, and retires what that completes; a retired version needs
// neither.
func (sp *Space) release(v string, version, readers int) error {
	sp.staged.mu.Lock()
	s := sp.staged.varLocked(v)
	var err error
	if version >= s.floor {
		r := s.recordLocked(version)
		switch {
		case readers > 0 && r.readers != 0 && r.readers != readers:
			err = fmt.Errorf("cods: %q v%d: %d readers declared, %d before", v, version, readers, r.readers)
		case readers > 0:
			r.readers = readers
		case r.readers != 0 && r.released >= r.readers:
			err = fmt.Errorf("cods: %q v%d: released more often than its %d readers", v, version, r.readers)
		default:
			r.released++
		}
	}
	recs := sp.staged.retireLocked(s, s.floor)
	sp.staged.mu.Unlock()
	sp.withdraw(recs, "release")
	return err
}

// AwaitRetired blocks until version of v has retired.
func (h *Handle) AwaitRetired(v string, version int) {
	h.sp.staged.mu.Lock()
	defer h.sp.staged.mu.Unlock()
	for version >= h.sp.staged.varLocked(v).floor {
		h.sp.staged.cond.Wait()
	}
}
