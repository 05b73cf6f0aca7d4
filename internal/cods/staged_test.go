package cods_test

import (
	"errors"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// fabrics builds a nodes x cores space over domain on each fabric: in
// process, and as a driver over one serving node per machine node
// (node.Cluster, the shape codsrun -backend=tcp deploys).
func fabrics(t *testing.T, nodes, cores int, domain geometry.BBox) map[string]*cods.Space {
	t.Helper()
	out := make(map[string]*cods.Space)
	for _, name := range []string{"inproc", "tcp"} {
		m, err := cluster.NewMachine(nodes, cores)
		if err != nil {
			t.Fatal(err)
		}
		f := transport.NewFabric(m)
		if name == "tcp" {
			c, err := node.NewCluster(f, domain, tcpnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
		}
		sp, err := cods.NewSpace(f, domain)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sp
	}
	return out
}

// filled is region's row-major cells at version ver, distinct per version.
func filled(region geometry.BBox, ver int) []float64 {
	var out []float64
	region.Each(func(p geometry.Point) { out = append(out, float64(1000*ver+100*p[0]+p[1])) })
	return out
}

// within runs get and fails the test if it has not returned within 3 s.
func within(t *testing.T, get func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- get() }()
	select {
	case err := <-done:
		return err
	case <-time.After(3 * time.Second):
		t.Fatal("the get of a retired version still waits after 3 s")
		return nil
	}
}

// TestRetiredGetFailsFast: a get of a version below its variable's floor
// fails at once with cods.ErrRetired, on both fabrics and for both
// operators, although the getter's cached schedule would name blocks that
// are gone. The sequential version is retired by a cursor's advance, the
// concurrent one by its one declared reader's release; either withdraws
// the version's blocks.
func TestRetiredGetFailsFast(t *testing.T) {
	domain := geometry.BoxFromSize([]int{8, 8})
	for name, sp := range fabrics(t, 2, 2, domain) {
		t.Run(name, func(t *testing.T) {
			const producer = cluster.CoreID(2) // node 1
			prod := sp.HandleAt(producer, 1, "put")
			cons := sp.HandleAt(0, 2, "get")

			if err := sp.DeclareStream("u", cods.StreamConfig{Producers: 1, MaxLag: 2}); err != nil {
				t.Fatal(err)
			}
			cur, err := cons.Subscribe("u")
			if err != nil {
				t.Fatal(err)
			}
			for ver := 0; ver < 2; ver++ {
				if _, err := prod.Publish("u", 0, domain, filled(domain, ver)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cur.GetWindow(domain, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := cur.Advance(1); err != nil {
				t.Fatal(err)
			}
			err = within(t, func() error { _, err := cons.GetSequential("u", 0, domain); return err })
			if !errors.Is(err, cods.ErrRetired) {
				t.Fatalf("sequential get of a retired version: err = %v, want cods.ErrRetired", err)
			}
			if got, err := cons.GetSequential("u", 1, domain); err != nil || got[9] != filled(domain, 1)[9] {
				t.Fatalf("get of the retained version: %v", err)
			}

			dc, err := decomp.New(decomp.Blocked, domain, []int{1, 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			info := cods.ProducerInfo{Decomp: dc, CoreOf: func(int) cluster.CoreID { return producer }}
			for ver := 0; ver < 2; ver++ {
				if err := prod.DeclareReaders("c", ver, 1); err != nil {
					t.Fatal(err)
				}
				if err := prod.PutConcurrent("c", ver, domain, filled(domain, ver)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cons.GetConcurrent(info, "c", 0, domain); err != nil {
				t.Fatal(err)
			}
			if err := cons.Release("c", 0); err != nil {
				t.Fatal(err)
			}
			err = within(t, func() error { _, err := cons.GetConcurrent(info, "c", 0, domain); return err })
			if !errors.Is(err, cods.ErrRetired) {
				t.Fatalf("concurrent get of a retired version: err = %v, want cods.ErrRetired", err)
			}
			if _, err := cons.GetConcurrent(info, "c", 1, domain); err != nil {
				t.Fatalf("get of the retained version: %v", err)
			}
			if name == "inproc" {
				key := transport.BufKey{Name: "c|" + domain.String()}
				if sp.Fabric().Exposed(producer, key) {
					t.Fatal("the released version is still exposed")
				}
			}
		})
	}
}

// TestCursorKeepsSchedules: a lock-step cursor — 2 nodes x 2 cores, a
// 16x16 domain in two producer halves, 50 rounds of publish, window,
// advance — builds its schedule once. Retirement withdraws each version
// without moving the variable's invalidation stamp, and every later
// version sits where the first did, so each round after the first hits the
// cached schedule: no lookup per step.
func TestCursorKeepsSchedules(t *testing.T) {
	domain := geometry.BoxFromSize([]int{16, 16})
	sp := fabrics(t, 2, 2, domain)["inproc"]
	halves := []geometry.BBox{
		geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{8, 16}),
		geometry.NewBBox(geometry.Point{8, 0}, geometry.Point{16, 16}),
	}
	if err := sp.DeclareStream("s", cods.StreamConfig{Producers: 2, MaxLag: 2}); err != nil {
		t.Fatal(err)
	}
	prods := []*cods.Handle{sp.HandleAt(1, 1, "pub"), sp.HandleAt(3, 1, "pub")}
	cons := sp.HandleAt(0, 2, "sub")
	cur, err := cons.Subscribe("s")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	for ver := 0; ver < rounds; ver++ {
		for i, h := range prods {
			if _, err := h.Publish("s", i, halves[i], filled(halves[i], ver)); err != nil {
				t.Fatal(err)
			}
		}
		out, err := cur.GetWindow(domain, ver, ver)
		if err != nil {
			t.Fatal(err)
		}
		if want := filled(domain, ver); out[0][17] != want[17] {
			t.Fatalf("round %d read %v, want %v", ver, out[0][17], want[17])
		}
		if err := cur.Advance(ver + 1); err != nil {
			t.Fatal(err)
		}
	}
	if cons.CacheHits < rounds-1 || cons.CacheMisses != 1 {
		t.Fatalf("%d schedule hits and %d misses in %d rounds, want at least %d and 1",
			cons.CacheHits, cons.CacheMisses, rounds, rounds-1)
	}
	if n := len(sp.Staged()); n != 0 {
		t.Fatalf("%d blocks staged after every version retired, want 0", n)
	}
}

// TestStagedRecordsAndDiscards: the staged table holds one block per put,
// with the application that staged it, and a discard drops it.
func TestStagedRecordsAndDiscards(t *testing.T) {
	domain := geometry.BoxFromSize([]int{8, 8})
	sp := fabrics(t, 2, 2, domain)["inproc"]
	region := geometry.NewBBox(geometry.Point{0, 0}, geometry.Point{4, 4})
	for _, owner := range []cluster.CoreID{2, 3} { // same region, different owners
		if err := sp.HandleAt(owner, 7, "put").PutSequential("rho", 0, region, filled(region, 0)); err != nil {
			t.Fatal(err)
		}
	}
	staged := sp.Staged()
	if len(staged) != 2 || staged[0].App != 7 || staged[0].Owner != 2 || staged[1].Owner != 3 {
		t.Fatalf("staged %+v, want the two blocks of app 7 at cores 2 and 3", staged)
	}
	if err := sp.HandleAt(3, 7, "gc").DiscardSequential("rho", 0, region); err != nil {
		t.Fatal(err)
	}
	if staged := sp.Staged(); len(staged) != 1 || staged[0].Owner != 2 {
		t.Fatalf("staged %+v after the discard, want the block at core 2", staged)
	}
}

// TestStagedKeepsThePutsSlice: the put hands its slice to the space, so
// the table keeps it uncopied once payloads are kept, and none before.
func TestStagedKeepsThePutsSlice(t *testing.T) {
	domain := geometry.BoxFromSize([]int{8, 8})
	sp := fabrics(t, 2, 2, domain)["inproc"]
	h := sp.HandleAt(2, 7, "put")
	if err := h.PutSequential("rho", 0, domain, filled(domain, 0)); err != nil {
		t.Fatal(err)
	}
	sp.SetKeepPayloads(true)
	data := filled(domain, 1)
	if err := h.PutSequential("rho", 1, domain, data); err != nil {
		t.Fatal(err)
	}
	staged := sp.Staged()
	if len(staged) != 2 || staged[0].Data != nil {
		t.Fatalf("staged %d blocks, the first keeping %d cells; want 2, the first keeping none", len(staged), len(staged[0].Data))
	}
	if got := staged[1].Data; len(got) != len(data) || &got[0] != &data[0] {
		t.Fatal("the table holds a copy of the put's slice")
	}
}
