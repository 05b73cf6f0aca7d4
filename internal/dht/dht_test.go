package dht

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

func service(t testing.TB, nodes, coresPerNode, dim, bits int) (*Service, *transport.Fabric) {
	t.Helper()
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	curve, err := sfc.NewCurve(dim, bits)
	if err != nil {
		t.Fatal(err)
	}
	return NewService(f, curve), f
}

func TestIntervalsPartitionIndexSpace(t *testing.T) {
	for _, nodes := range []int{1, 3, 4, 7} {
		s, _ := service(t, nodes, 2, 2, 4) // index space 256
		var prevHi uint64
		for n := 0; n < nodes; n++ {
			lo, hi := s.intervalOf(n)
			if lo != prevHi {
				t.Fatalf("nodes=%d: interval %d starts at %d, want %d", nodes, n, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("nodes=%d: empty interval %d", nodes, n)
			}
			prevHi = hi
		}
		if prevHi != s.curve.Total() {
			t.Fatalf("nodes=%d: intervals end at %d, total %d", nodes, prevHi, s.curve.Total())
		}
	}
}

func TestNodeOfIndexConsistent(t *testing.T) {
	s, _ := service(t, 5, 2, 2, 4)
	for idx := uint64(0); idx < s.curve.Total(); idx++ {
		n := s.nodeOfIndex(idx)
		lo, hi := s.intervalOf(n)
		if idx < lo || idx >= hi {
			t.Fatalf("index %d mapped to node %d with interval [%d,%d)", idx, n, lo, hi)
		}
	}
}

func TestInsertQueryRoundTrip(t *testing.T) {
	s, f := service(t, 4, 3, 3, 4)
	cl := s.ClientAt(5)
	region := geometry.NewBBox(geometry.Point{0, 0, 0}, geometry.Point{8, 8, 8})
	e := Entry{Var: "temperature", Version: 2, Region: region, Owner: 5}
	if err := cl.Insert("p", 1, e); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Query("p", 1, "temperature", 2, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Owner != 5 || !got[0].Region.Equal(region) {
		t.Fatalf("Query = %+v", got)
	}
	// Different version: no results.
	got, err = cl.Query("p", 1, "temperature", 3, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("version 3 query = %+v", got)
	}
	// Different variable: no results.
	got, err = cl.Query("p", 1, "velocity", 2, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("velocity query = %+v", got)
	}
	_ = f
}

func TestQueryPartialOverlap(t *testing.T) {
	s, _ := service(t, 2, 2, 2, 4)
	cl := s.ClientAt(0)
	// Two disjoint stored blocks.
	a := Entry{Var: "v", Region: geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{8, 8}), Owner: 1}
	b := Entry{Var: "v", Region: geometry.NewBBox(geometry.Point{8, 0}, geometry.Point{16, 8}), Owner: 2}
	if err := cl.Insert("p", 1, a); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert("p", 1, b); err != nil {
		t.Fatal(err)
	}
	// A query overlapping only block a.
	got, err := cl.Query("p", 1, "v", 0, geometry.NewBBox(geometry.Point{1, 1}, geometry.Point{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Owner != 1 {
		t.Fatalf("partial query = %+v", got)
	}
	// A query spanning both.
	got, err = cl.Query("p", 1, "v", 0, geometry.NewBBox(geometry.Point{6, 0}, geometry.Point{10, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("spanning query = %+v", got)
	}
}

func TestQueryDeduplicatesAcrossDHTCores(t *testing.T) {
	// A region spanning the whole domain is registered on every DHT core;
	// a full-domain query must still return it once.
	s, _ := service(t, 4, 2, 2, 4)
	cl := s.ClientAt(3)
	region := geometry.BoxFromSize([]int{16, 16})
	if err := cl.Insert("p", 1, Entry{Var: "v", Region: region, Owner: 3}); err != nil {
		t.Fatal(err)
	}
	// The entry must be present in several tables.
	total := 0
	for n := 0; n < 4; n++ {
		total += s.TableSize(n)
	}
	if total < 2 {
		t.Fatalf("full-domain entry registered in %d tables, expected several", total)
	}
	got, err := cl.Query("p", 1, "v", 0, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("query returned %d entries, want 1 after dedup", len(got))
	}
}

func TestInsertIdempotent(t *testing.T) {
	s, _ := service(t, 2, 2, 2, 3)
	cl := s.ClientAt(0)
	e := Entry{Var: "v", Region: geometry.BoxFromSize([]int{4, 4}), Owner: 0}
	for i := 0; i < 3; i++ {
		if err := cl.Insert("p", 1, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.Query("p", 1, "v", 0, geometry.BoxFromSize([]int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("after re-inserts query = %d entries", len(got))
	}
}

func TestEmptyRegionRejected(t *testing.T) {
	s, _ := service(t, 2, 2, 2, 3)
	cl := s.ClientAt(0)
	empty := geometry.NewBBox(geometry.Point{1, 1}, geometry.Point{1, 1})
	if err := cl.Insert("p", 1, Entry{Var: "v", Region: empty, Owner: 0}); err == nil {
		t.Fatal("empty insert accepted")
	}
	if _, err := cl.Query("p", 1, "v", 0, empty); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestControlTrafficMetered(t *testing.T) {
	s, f := service(t, 2, 2, 2, 4)
	cl := s.ClientAt(0)
	region := geometry.BoxFromSize([]int{16, 16})
	if err := cl.Insert("ph", 7, Entry{Var: "v", Region: region, Owner: 0}); err != nil {
		t.Fatal(err)
	}
	flows := f.Machine().Metrics().Flows("ph")
	if len(flows) == 0 {
		t.Fatal("no control flows recorded")
	}
}

// TestClear: ResetNode — the one way a table is emptied — drops one node's
// table and leaves the others.
func TestClear(t *testing.T) {
	s, _ := service(t, 2, 2, 2, 3)
	cl := s.ClientAt(0)
	// The full domain spans both nodes' intervals: one record on each.
	if err := cl.Insert("p", 1, Entry{Var: "v", Region: geometry.BoxFromSize([]int{8, 8}), Owner: 0}); err != nil {
		t.Fatal(err)
	}
	s.ResetNode(1)
	if got := s.TableSize(1); got != 0 {
		t.Fatalf("table 1 holds %d entries after ResetNode(1)", got)
	}
	if got := s.TableSize(0); got != 1 {
		t.Fatalf("table 0 holds %d entries after ResetNode(1), want 1", got)
	}
}

// TestQueryRejectsForeignReply: a query's reply is outside input — over a
// network backend an acknowledgement decodes to nil and any registered
// message decodes cleanly — so a DHT core that answers with something else
// fails the query, naming the node, instead of panicking the caller.
func TestQueryRejectsForeignReply(t *testing.T) {
	s, f := service(t, 2, 2, 2, 3)
	cl := s.ClientAt(0)
	region := geometry.BoxFromSize([]int{8, 8}) // spans both nodes' intervals
	lower := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{1, 1})
	if nodes := s.nodesForRegion(lower); len(nodes) != 1 || nodes[0] != 0 {
		t.Fatalf("cell (0,0) routes to nodes %v, want [0]", nodes)
	}
	for _, reply := range []any{nil, insertReq{}} {
		for _, node := range []int{0, 1} {
			core := f.Machine().CoreOn(cluster.NodeID(node), 0)
			f.Endpoint(core).RegisterHandler(serviceName, func(cluster.CoreID, any) (any, error) {
				return reply, nil
			})
		}
		// Both the single-node call and the fan-out.
		for _, q := range []geometry.BBox{lower, region} {
			_, err := cl.Query("p", 1, "v", 0, q)
			if err == nil || !strings.Contains(err.Error(), "dht: query on node 0: unexpected reply") {
				t.Fatalf("query of %v answered with %T: err = %v, want it to name node 0", q, reply, err)
			}
		}
	}
}

func TestConcurrentInsertQuery(t *testing.T) {
	s, _ := service(t, 4, 4, 2, 5)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := s.ClientAt(cluster.CoreID(c))
			region := geometry.NewBBox(geometry.Point{c * 4, 0}, geometry.Point{c*4 + 4, 32})
			if err := cl.Insert("v", 1, Entry{Var: "x", Region: region, Owner: cluster.CoreID(c)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := cl.Query("v", 1, "x", 0, region); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	cl := s.ClientAt(0)
	got, err := cl.Query("v", 1, "x", 0, geometry.BoxFromSize([]int{32, 32}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("final query = %d entries, want 8", len(got))
	}
}

// BenchmarkQuery times lookups of never-repeated regions against a blocked
// layout of 64 regions of 16³ at version 0. Every region has its corners
// in [1,16) and [33,48) on each axis, so each answer is the 27 blocks that
// [8,40)³ overlaps.
func BenchmarkQuery(b *testing.B) {
	s, _ := service(b, 8, 4, 3, 6)
	cl := s.ClientAt(0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				r := geometry.NewBBox(
					geometry.Point{i * 16, j * 16, k * 16},
					geometry.Point{(i + 1) * 16, (j + 1) * 16, (k + 1) * 16})
				if err := cl.Insert("p", 1, Entry{Var: "v", Region: r, Owner: cluster.CoreID(i)}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// The six corners are the base-15 digits of i: no region repeats
		// within 15^6 iterations.
		q := geometry.BBox{Min: make(geometry.Point, 3), Max: make(geometry.Point, 3)}
		for d, k := 0, i; d < 3; d++ {
			q.Min[d], k = 1+k%15, k/15
			q.Max[d], k = 33+k%15, k/15
		}
		got, err := cl.Query("p", 1, "v", 0, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 27 {
			b.Fatalf("query %v found %d entries, want 27", q, len(got))
		}
	}
}

// TestNodesForRegionMatchesExactSpans: routing by the curve's cover reaches
// exactly the nodes whose intervals the region's exact spans meet, on every
// curve, for 1–9 nodes. Nine nodes over the 8 indices of the 1-D grid leave
// the last interval empty. The intervals are written out from the rule —
// the index space split evenly in node order, the remainder over the first
// nodes — not read from the service.
func TestNodesForRegionMatchesExactSpans(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, name := range sfc.CurveNames() {
		for _, size := range [][]int{{8}, {16, 16}, {8, 8, 8}} {
			curve, err := sfc.ForDomain(name, size)
			if err != nil {
				t.Fatal(err)
			}
			for nodes := 1; nodes <= 9; nodes++ {
				m, err := cluster.NewMachine(nodes, 1)
				if err != nil {
					t.Fatal(err)
				}
				s := NewService(transport.NewFabric(m), curve)
				total, n := curve.Total(), uint64(nodes)
				lo := func(node int) uint64 { return uint64(node)*(total/n) + min(uint64(node), total%n) }
				for i := 0; i < 40; i++ {
					box := geometry.BBox{Min: make(geometry.Point, len(size)), Max: make(geometry.Point, len(size))}
					for d, ext := range size {
						box.Min[d] = r.Intn(ext)
						box.Max[d] = box.Min[d] + 1 + r.Intn(ext-box.Min[d])
					}
					var want []int
					for node := 0; node < nodes; node++ {
						for _, span := range curve.Spans(box) {
							if lo(node) < span.End && span.Start < lo(node+1) {
								want = append(want, node)
								break
							}
						}
					}
					if got := s.nodesForRegion(box); !slices.Equal(got, want) {
						t.Fatalf("%s %v over %d nodes: routed to %v, exact spans meet %v", name, box, nodes, got, want)
					}
				}
			}
		}
	}
}

// TestRouteAllocations: one route of a 24x28 box on a 512x512 grid over two
// nodes walks the cover, which allocates less than the exact spans would.
func TestRouteAllocations(t *testing.T) {
	s, _ := service(t, 2, 1, 2, 9)
	q := geometry.NewBBox(geometry.Point{37, 101}, geometry.Point{61, 129})
	route := testing.AllocsPerRun(50, func() { s.nodesForRegion(q) })
	spans := testing.AllocsPerRun(50, func() { s.curve.Spans(q) })
	if route >= spans {
		t.Fatalf("a route allocates %v times, the exact spans of its region %v", route, spans)
	}
}

func TestRemove(t *testing.T) {
	s, _ := service(t, 4, 2, 2, 4)
	cl := s.ClientAt(0)
	region := geometry.BoxFromSize([]int{16, 16})
	e := Entry{Var: "v", Version: 2, Region: region, Owner: 3}
	if err := cl.Insert("p", 1, e); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove("p", 1, e); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Query("p", 1, "v", 2, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("entry survived removal: %v", got)
	}
	for n := 0; n < 4; n++ {
		if s.TableSize(n) != 0 {
			t.Fatalf("node %d table not empty after remove", n)
		}
	}
	// Removing again (or something never inserted) is a no-op.
	if err := cl.Remove("p", 1, e); err != nil {
		t.Fatal(err)
	}
	empty := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{0, 0})
	if err := cl.Remove("p", 1, Entry{Var: "v", Region: empty}); err == nil {
		t.Fatal("empty region remove accepted")
	}
}

func TestRemoveLeavesOtherEntries(t *testing.T) {
	s, _ := service(t, 2, 2, 2, 4)
	cl := s.ClientAt(0)
	a := Entry{Var: "v", Region: geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{8, 8}), Owner: 0}
	b := Entry{Var: "v", Region: geometry.NewBBox(geometry.Point{8, 0}, geometry.Point{16, 8}), Owner: 1}
	if err := cl.Insert("p", 1, a); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert("p", 1, b); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove("p", 1, a); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Query("p", 1, "v", 0, geometry.BoxFromSize([]int{16, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Owner != 1 {
		t.Fatalf("Query after partial remove = %v", got)
	}
}
