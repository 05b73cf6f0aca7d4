package tcpnet_test

import (
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// TestStreamingNodeMemoryBounded runs 500 lock-step versions of a stream
// of two 2 MiB blocks, one on each node of a node.Cluster — the shape of
// stream-lockstep-tcp — and counts the expose bodies the nodes read the
// blocks into. Each block has at most MaxLag+1 versions alive at once, so
// once every block has had that many, every later version lands in a body
// a retired one left behind: fresh bodies stop after warm-up, and each
// node's free list stays under its bound. Every version's cells are its
// own, so a body recycled too early would show as a wrong cell. Under the
// race detector, whose instrumented cell encoder makes a version some 30
// times slower, the stream runs 50 versions: still many times the warm-up.
func TestStreamingNodeMemoryBounded(t *testing.T) {
	const (
		side   = 512 // 512 x 512 float64 = 2 MiB a block
		maxLag = 2
	)
	versions := 500
	if tcpnet.RaceEnabled {
		versions = 50
	}
	wasOn := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(wasOn)
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	domain := geometry.BoxFromSize([]int{2 * side, side})
	nodes, err := node.NewCluster(f, domain, tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nodes.Close()
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.DeclareStream("s", cods.StreamConfig{Producers: 2, MaxLag: maxLag, Policy: cods.Backpressure}); err != nil {
		t.Fatal(err)
	}
	cur, err := sp.HandleAt(0, 2, "get").Subscribe("s")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []geometry.BBox
	var producers []*cods.Handle
	var data [][]float64
	for i := 0; i < 2; i++ {
		blocks = append(blocks, geometry.NewBBox(geometry.Point{i * side, 0}, geometry.Point{(i + 1) * side, side}))
		producers = append(producers, sp.HandleAt(cluster.CoreID(i), 1, "put"))
		data = append(data, make([]float64, side*side))
	}
	// The window read straddles both blocks: a few cells of each.
	probe := geometry.NewBBox(geometry.Point{side - 2, side - 2}, geometry.Point{side + 2, side})
	fresh, reused := obs.C("tcpnet.bodies.fresh"), obs.C("tcpnet.bodies.reused")
	fresh0, reused0 := fresh.Value(), reused.Value()
	warm := int64((maxLag + 1) * len(blocks))
	var freshWarm int64
	for v := 0; v < versions; v++ {
		for i, h := range producers {
			for j := range data[i] {
				data[i][j] = float64(v*len(blocks) + i)
			}
			if _, err := h.Publish("s", i, blocks[i], data[i]); err != nil {
				t.Fatalf("version %d, block %d: %v", v, i, err)
			}
		}
		win, err := cur.GetWindow(probe, v, v)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		for j, x := range win[0] {
			if i := j / probe.Size(1) / 2; x != float64(v*len(blocks)+i) {
				t.Fatalf("version %d: cell %d of the window reads %v, want %v", v, j, x, float64(v*len(blocks)+i))
			}
		}
		if err := cur.Advance(v + 1); err != nil {
			t.Fatal(err)
		}
		if v == maxLag {
			freshWarm = fresh.Value() - fresh0
		}
	}
	total, recycled := fresh.Value()-fresh0, reused.Value()-reused0
	t.Logf("%d versions of %d blocks: %d fresh bodies (%d by version %d), %d reused", versions, len(blocks), total, freshWarm, maxLag, recycled)
	if total > warm || total != freshWarm {
		t.Errorf("%d fresh bodies, %d of them after version %d; want at most (MaxLag+1) x blocks = %d, none after warm-up",
			total, total-freshWarm, maxLag, warm)
	}
	if total+recycled != int64(versions*len(blocks)) {
		t.Errorf("%d fresh and %d reused bodies for %d exposes", total, recycled, versions*len(blocks))
	}
	for k := 0; k < m.NumNodes(); k++ {
		if n := tcpnet.FreeBodyBytes(nodes.Node(cluster.NodeID(k)).Backend()); n > tcpnet.MaxFreeBodies {
			t.Errorf("node %d's free list holds %d bytes, above its bound %d", k, n, tcpnet.MaxFreeBodies)
		}
	}
}
