package dht

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
)

// Kinds of step a table-ops byte string decodes into.
const (
	stepInsert       = iota // a fresh entry
	stepReinsert            // an entry the table holds: an idempotent re-insert
	stepRemove              // an entry the table holds
	stepRemoveAbsent        // a fresh entry, most likely not held: a no-op then
	stepKinds
)

// tableRun counts what a table-ops run exercised: the steps of each kind,
// the removes that took the last entry of a variable version, and the
// bounded queries a table answered whole and those it answered with the
// overlapping entries.
type tableRun struct {
	steps         [stepKinds]int
	emptied       int
	whole, within int
}

// stepBox decodes a non-empty box of rank dim from 2*dim bytes: each axis
// starts in [0,8) and spans 1 to 4 cells, so boxes overlap often.
func stepBox(b []byte, dim int) geometry.BBox {
	box := geometry.BBox{Min: make(geometry.Point, dim), Max: make(geometry.Point, dim)}
	for d := 0; d < dim; d++ {
		box.Min[d] = int(b[2*d] % 8)
		box.Max[d] = box.Min[d] + 1 + int(b[2*d+1]%4)
	}
	return box
}

func sameEntry(a, b Entry) bool {
	return a.Var == b.Var && a.Version == b.Version && a.Owner == b.Owner && a.Region.Equal(b.Region)
}

// runTableOps decodes data into steps against both homes of a Locations —
// the location table of a one-node service of rank dim, through its RPC
// handler, and a Locations per variable version used directly, as a cods
// handle uses it — and replays each on an oracle: the held entries in
// insertion order, queried by a brute-force Overlaps scan. A step is
// 4 + 4*dim bytes: kind, variable version, owner, pick, the entry's region
// and a probe region; a trailing partial step is ignored. After every step
// each of the four variable versions — those a remove has emptied too —
// must answer the step's region, its probe and the whole domain exactly as
// the oracle does, in the same order, in both homes, and so must the
// step's table answer: the same three regions queried with a bound drawn
// from the pick byte, which the oracle answers with every entry of the
// version when it holds at most that many, else with the overlapping
// ones (Locations.Answer); a direct Insert or
// Remove must report whether it changed what the oracle holds; the table
// must hold as many entries as the oracle and keep no empty version; and
// every Locations must be in step with itself (checkLocations).
func runTableOps(t testing.TB, dim int, data []byte) tableRun {
	t.Helper()
	s, _ := service(t, 1, 1, dim, 3)
	var held []Entry
	direct := map[tableKey]*Locations{}
	var run tableRun
	vars := [...]string{"a", "b"}
	whole := geometry.BoxFromSize([]int{8, 8, 8}[:dim])
	call := func(req any) any {
		resp, err := s.serve(0, req)
		if err != nil {
			t.Fatalf("serve %T: %v", req, err)
		}
		return resp
	}
	stepLen := 4 + 4*dim
	for ; len(data) >= stepLen; data = data[stepLen:] {
		e := Entry{
			Var:     vars[data[1]&1],
			Version: int(data[1]>>1) & 1,
			Owner:   cluster.CoreID(data[2] % 4),
			Region:  stepBox(data[4:], dim),
		}
		probe := stepBox(data[4+2*dim:], dim)
		kind := int(data[0]) % stepKinds
		if (kind == stepReinsert || kind == stepRemove) && len(held) > 0 {
			e = held[int(data[3])%len(held)]
		} else if kind == stepReinsert {
			kind = stepInsert
		} else if kind == stepRemove {
			kind = stepRemoveAbsent
		}
		k := tableKey{e.Var, e.Version}
		if direct[k] == nil {
			direct[k] = &Locations{}
		}
		i := slices.IndexFunc(held, func(h Entry) bool { return sameEntry(h, e) })
		switch kind {
		case stepInsert, stepReinsert:
			call(insertReq{Entry: e})
			if added := direct[k].Insert(e); added != (i < 0) {
				t.Fatalf("Insert(%+v) = %v, but the oracle held it: %v", e, added, i >= 0)
			}
			if i < 0 {
				held = append(held, e)
			}
		case stepRemove, stepRemoveAbsent:
			call(removeReq{Entry: e})
			if removed := direct[k].Remove(e.Owner, e.Region); removed != (i >= 0) {
				t.Fatalf("Remove(%+v) = %v, but the oracle held it: %v", e, removed, i >= 0)
			}
			if i >= 0 {
				held = slices.Delete(held, i, i+1)
				if !slices.ContainsFunc(held, func(h Entry) bool { return h.Var == e.Var && h.Version == e.Version }) {
					run.emptied++
				}
			}
		}
		run.steps[kind]++

		keys := map[tableKey]bool{}
		for _, h := range held {
			keys[tableKey{h.Var, h.Version}] = true
		}
		bound := int(data[3] % 24)
		for _, v := range vars {
			for version := 0; version < 2; version++ {
				var all []Entry
				for _, h := range held {
					if h.Var == v && h.Version == version {
						all = append(all, h)
					}
				}
				for _, q := range []geometry.BBox{e.Region, probe, whole} {
					var want []Entry
					for _, h := range all {
						if h.Region.Overlaps(q) {
							want = append(want, h)
						}
					}
					got := call(queryReq{Var: v, Version: version, Region: q}).(queryResp).Entries
					if !slices.EqualFunc(got, want, sameEntry) {
						t.Fatalf("after %+v, query %s@%d %v = %v; Overlaps scan says %v", e, v, version, q, got, want)
					}
					got = direct[tableKey{v, version}].Overlapping(q)
					if !slices.EqualFunc(got, want, sameEntry) {
						t.Fatalf("after %+v, Overlapping %s@%d %v = %v; Overlaps scan says %v", e, v, version, q, got, want)
					}

					if len(all) > 0 && len(all) <= bound {
						want = all
						run.whole++
					} else if len(all) > 0 {
						run.within++
					}
					got = call(queryReq{Var: v, Version: version, Region: q, Bound: bound}).(queryResp).Entries
					if !slices.EqualFunc(got, want, sameEntry) {
						t.Fatalf("after %+v, query %s@%d %v bound %d = %v; the oracle says %v", e, v, version, q, bound, got, want)
					}
					got = direct[tableKey{v, version}].Answer(q, bound)
					if !slices.EqualFunc(got, want, sameEntry) {
						t.Fatalf("after %+v, Answer %s@%d %v bound %d = %v; the oracle says %v", e, v, version, q, bound, got, want)
					}
				}
			}
		}
		if n := s.TableSize(0); n != len(held) {
			t.Fatalf("after %+v the table holds %d entries, the oracle %d", e, n, len(held))
		}
		tb := s.tables[0]
		if len(tb.buckets) != len(keys) {
			t.Fatalf("after %+v the table keeps %d variable versions, %d hold entries", e, len(tb.buckets), len(keys))
		}
		for k, b := range tb.buckets {
			if err := checkLocations(b); err != nil {
				t.Fatalf("after %+v the table's %v: %v", e, k, err)
			}
		}
		for k, l := range direct {
			if err := checkLocations(l); err != nil {
				t.Fatalf("after %+v the direct %v: %v", e, k, err)
			}
		}
	}
	return run
}

// checkLocations holds l in step with itself: each live entry's packed
// corners are its region's and the index points its key at it, each hole's
// corners are the ones no box overlaps and no key points at it, the index
// has one key per live entry, and holes never outnumber live entries.
func checkLocations(l *Locations) error {
	if len(l.entries) == 0 {
		return nil
	}
	w := len(l.corners) / len(l.entries)
	if len(l.corners) != w*len(l.entries) || w%2 != 0 {
		return fmt.Errorf("%d corners for %d entries", len(l.corners), len(l.entries))
	}
	holes := 0
	for i, e := range l.entries {
		c := l.corners[i*w : i*w+w]
		if e.Region.Min == nil {
			holes++
			for d := 0; d < w/2; d++ {
				if c[d] != math.MaxInt || c[w/2+d] != math.MinInt {
					return fmt.Errorf("hole %d has corners %v", i, c)
				}
			}
			continue
		}
		if !slices.Equal(c[:w/2], e.Region.Min) || !slices.Equal(c[w/2:], e.Region.Max) {
			return fmt.Errorf("entry %d %v has packed corners %v", i, e.Region, c)
		}
		if at, ok := l.index[string(locKey(nil, e.Owner, e.Region))]; !ok || at != i {
			return fmt.Errorf("entry %d %+v is indexed at %d (%v)", i, e, at, ok)
		}
	}
	if holes != l.holes || len(l.index) != l.Len() || 2*holes > len(l.entries) {
		return fmt.Errorf("%d holes (counted %d) and %d keys among %d entries", holes, l.holes, len(l.index), len(l.entries))
	}
	return nil
}

// TestTableMatchesOverlapsScan replays seeded random insert, duplicate
// insert, remove and remove-absent sequences over 2-D and 3-D regions
// against the packed location table and the brute-force oracle, and
// checks that the seeds exercised every kind of step, emptied a variable
// version by removing its last entry, and drew bounds that a table met and
// bounds that it passed.
func TestTableMatchesOverlapsScan(t *testing.T) {
	var total tableRun
	for seed := int64(1); seed <= 20; seed++ {
		for _, dim := range []int{2, 3} {
			data := make([]byte, 300*(4+4*dim))
			rand.New(rand.NewSource(seed)).Read(data)
			run := runTableOps(t, dim, data)
			for k, n := range run.steps {
				total.steps[k] += n
			}
			total.emptied += run.emptied
			total.whole += run.whole
			total.within += run.within
		}
	}
	if slices.Contains(total.steps[:], 0) || total.emptied == 0 || total.whole == 0 || total.within == 0 {
		t.Fatalf("the seeds did not exercise every kind of step (insert, re-insert, remove, remove-absent; emptied; whole and bounded answers): %+v", total)
	}
}

// FuzzTableOps decodes arbitrary bytes into table operations — the first
// byte picks rank 2 or 3, at most 24 steps follow — and holds the packed
// table's region queries and bounded table answers to the oracle after
// every one.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1, 0, 2, 3, 4, 1, 1, 2, 2, 0, 0, 5, 5, 1, 1, 2, 0, 0, 0, 1})
	for _, dim := range []int{2, 3} {
		data := make([]byte, 1+24*(4+4*dim))
		rand.New(rand.NewSource(int64(dim))).Read(data)
		data[0] = byte(dim)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := 2 + int(data[0]%2)
		runTableOps(t, dim, data[1:min(len(data), 1+24*(4+4*dim))])
	})
}
