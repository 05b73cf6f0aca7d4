package dht

import (
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
// and the removes that took the last entry of a variable version.
type tableRun struct {
	steps   [stepKinds]int
	emptied int
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

// runTableOps decodes data into steps against the location table of a
// one-node service of rank dim and replays each on an oracle: the held
// entries in insertion order, queried by a brute-force Overlaps scan. A
// step is 4 + 4*dim bytes: kind, variable version, owner, pick, the
// entry's region and a probe region; a trailing partial step is ignored.
// After every step each of the four variable versions — those a remove
// has emptied too — must answer the step's region, its probe and the
// whole domain exactly as the oracle does, in the same order; the table
// must hold as many entries as the oracle and keep no empty version; and
// every version's packed corners must be its entries' corners.
func runTableOps(t testing.TB, dim int, data []byte) tableRun {
	t.Helper()
	s, _ := service(t, 1, 1, dim, 3)
	var held []Entry
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
		switch kind {
		case stepInsert, stepReinsert:
			call(insertReq{Entry: e})
			if i := slices.IndexFunc(held, func(h Entry) bool { return sameEntry(h, e) }); i < 0 {
				held = append(held, e)
			}
		case stepRemove, stepRemoveAbsent:
			call(removeReq{Entry: e})
			if i := slices.IndexFunc(held, func(h Entry) bool { return sameEntry(h, e) }); i >= 0 {
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
		for _, v := range vars {
			for version := 0; version < 2; version++ {
				for _, q := range []geometry.BBox{e.Region, probe, whole} {
					var want []Entry
					for _, h := range held {
						if h.Var == v && h.Version == version && h.Region.Overlaps(q) {
							want = append(want, h)
						}
					}
					got := call(queryReq{Var: v, Version: version, Region: q}).(queryResp).Entries
					if !slices.EqualFunc(got, want, sameEntry) {
						t.Fatalf("after %+v, query %s@%d %v = %v; Overlaps scan says %v", e, v, version, q, got, want)
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
			var corners []int
			for _, h := range b.entries {
				corners = append(append(corners, h.Region.Min...), h.Region.Max...)
			}
			if !slices.Equal(b.corners, corners) {
				t.Fatalf("after %+v the packed corners of %v are %v, its entries' %v", e, k, b.corners, corners)
			}
		}
	}
	return run
}

// TestTableMatchesOverlapsScan replays seeded random insert, duplicate
// insert, remove and remove-absent sequences over 2-D and 3-D regions
// against the packed location table and the brute-force oracle, and
// checks that the seeds exercised every kind of step, and emptied a
// variable version by removing its last entry.
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
		}
	}
	if slices.Contains(total.steps[:], 0) || total.emptied == 0 {
		t.Fatalf("the seeds did not exercise every kind of step (insert, re-insert, remove, remove-absent; emptied): %+v", total)
	}
}

// FuzzTableOps decodes arbitrary bytes into table operations — the first
// byte picks rank 2 or 3, at most 24 steps follow — and holds the packed
// table to the Overlaps oracle after every one.
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
