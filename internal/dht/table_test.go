package dht

import (
	"fmt"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/sfc"
	"github.com/insitu/cods/internal/transport"
)

func tableRig(t testing.TB, nodes, cores, dim, bits int) *Service {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := sfc.NewCurve(dim, bits)
	if err != nil {
		t.Fatal(err)
	}
	return NewService(transport.NewFabric(m), curve)
}

// TestTableManyVariablesConsistency: with entries of 64 variables in the
// tables, TableSize and Query see the union.
func TestTableManyVariablesConsistency(t *testing.T) {
	s := tableRig(t, 2, 2, 2, 4)
	cl := s.ClientAt(0)
	region := geometry.BoxFromSize([]int{16, 16})
	const vars = 64
	for i := 0; i < vars; i++ {
		e := Entry{Var: fmt.Sprintf("v%03d", i), Version: 1, Region: region, Owner: 1}
		if err := cl.Insert("t", 1, e); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for n := 0; n < 2; n++ {
		total += s.TableSize(n)
	}
	// The full-domain region spans both nodes' intervals, so every entry
	// registers on both DHT cores.
	if total != 2*vars {
		t.Fatalf("total table size = %d, want %d", total, 2*vars)
	}
	for i := 0; i < vars; i++ {
		got, err := cl.Query("t", 1, fmt.Sprintf("v%03d", i), 1, region)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("var %d: %d entries, want 1 (dedup across nodes)", i, len(got))
		}
	}
}

// TestConcurrentInsertQueryRemove hammers the tables from many
// goroutines touching distinct variables (run under -race).
func TestConcurrentInsertQueryRemove(t *testing.T) {
	s := tableRig(t, 4, 4, 2, 5)
	region := geometry.BoxFromSize([]int{32, 32})
	const goroutines = 16
	const iterations = 25
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := s.ClientAt(cluster.CoreID(g))
			v := fmt.Sprintf("var%d", g)
			for it := 0; it < iterations; it++ {
				e := Entry{Var: v, Version: it, Region: region, Owner: cluster.CoreID(g)}
				if err := cl.Insert("t", 1, e); err != nil {
					errCh <- err
					return
				}
				got, err := cl.Query("t", 1, v, it, region)
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != 1 {
					errCh <- fmt.Errorf("goroutine %d it %d: %d entries, want 1", g, it, len(got))
					return
				}
				if err := cl.Remove("t", 1, e); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	for n := 0; n < 4; n++ {
		if s.TableSize(n) != 0 {
			t.Fatalf("node %d retains %d entries after balanced insert/remove", n, s.TableSize(n))
		}
	}
}

// TestConcurrentQuerySameVariable: parallel readers of one variable share
// the table read-lock and must all see the same answer.
func TestConcurrentQuerySameVariable(t *testing.T) {
	s := tableRig(t, 2, 4, 2, 4)
	region := geometry.BoxFromSize([]int{16, 16})
	if err := s.ClientAt(0).Insert("t", 1, Entry{Var: "hot", Version: 7, Region: region, Owner: 3}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := s.ClientAt(cluster.CoreID(g))
			for i := 0; i < 50; i++ {
				got, err := cl.Query("t", 1, "hot", 7, region)
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != 1 || got[0].Owner != 3 {
					errCh <- fmt.Errorf("reader %d: got %+v", g, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestServeTimesQueries: with observability on, each query a DHT core
// answers adds one dht.serve_ns sample — one per node a region's query
// reaches — and inserts, removes and queries with observability off add
// none.
func TestServeTimesQueries(t *testing.T) {
	s := tableRig(t, 2, 1, 2, 4)
	cl := s.ClientAt(0)
	whole := geometry.BoxFromSize([]int{16, 16})
	e := Entry{Var: "v", Version: 1, Region: whole, Owner: 1}
	if err := cl.Insert("t", 1, e); err != nil {
		t.Fatal(err)
	}
	prev := obs.Enabled()
	t.Cleanup(func() { obs.Enable(prev) })
	obs.Enable(false)
	before := obsServeNs.Count()
	if _, err := cl.Query("t", 1, "v", 1, whole); err != nil {
		t.Fatal(err)
	}
	obs.Enable(true)
	if got, err := cl.Query("t", 1, "v", 1, whole); err != nil || len(got) != 1 {
		t.Fatalf("Query = %v, %v", got, err)
	}
	if err := cl.Remove("t", 1, e); err != nil {
		t.Fatal(err)
	}
	if n := obsServeNs.Count() - before; n != 2 {
		t.Fatalf("a query reaching both DHT cores left %d dht.serve_ns samples, want 2", n)
	}
}

// BenchmarkInsert times one insert and one remove of a fresh one-cell entry
// on a DHT core whose table holds n one-cell entries of the same variable
// version — a cyclic decomposition's pieces. The index makes both O(1), so
// ns/op stays flat from 10³ to 10⁵ entries; a scan for the duplicate would
// grow a hundredfold.
func BenchmarkInsert(b *testing.B) {
	const side = 512 // 2^18 cells, room for 10^5 entries and the fresh ones
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s := tableRig(b, 1, 1, 2, 9)
			cell := func(i int) Entry {
				x, y := i/side, i%side
				return Entry{Var: "v", Region: geometry.NewBBox(geometry.Point{x, y}, geometry.Point{x + 1, y + 1})}
			}
			serve := func(req any) {
				if _, err := s.serve(0, req); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				serve(insertReq{Entry: cell(i)})
			}
			fresh := make([]Entry, side*side-n)
			for i := range fresh {
				fresh[i] = cell(n + i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := fresh[i%len(fresh)]
				serve(insertReq{Entry: e})
				serve(removeReq{Entry: e})
			}
			b.StopTimer()
			if got := s.TableSize(0); got != n {
				b.Fatalf("the table holds %d entries after balanced inserts and removes, want %d", got, n)
			}
		})
	}
}
