package bench

import (
	"math"
	"testing"

	"github.com/insitu/cods/internal/cluster"
)

func TestTorusFor(t *testing.T) {
	// Exact balanced factorizations stay exact.
	for _, c := range []struct {
		n       int
		x, y, z int
	}{
		{1, 1, 1, 1},
		{8, 2, 2, 2},
		{64, 4, 4, 4},
	} {
		tor := torusFor(c.n)
		if tor.X != c.x || tor.Y != c.y || tor.Z != c.z {
			t.Errorf("torusFor(%d) = %+v, want %d,%d,%d", c.n, tor, c.x, c.y, c.z)
		}
	}
	// Awkward counts get a covering, non-degenerate box.
	for _, n := range []int{7, 12, 43, 48, 86, 173, 769} {
		tor := torusFor(n)
		if tor.nodes() < n {
			t.Fatalf("torusFor(%d) covers only %d nodes", n, tor.nodes())
		}
		if float64(tor.nodes()) > 2.5*float64(n) {
			t.Fatalf("torusFor(%d) wastes too much: %+v", n, tor)
		}
		lo, hi := min(tor.X, tor.Y, tor.Z), max(tor.X, tor.Y, tor.Z)
		if n >= 8 && hi > 8*lo {
			t.Fatalf("torusFor(%d) degenerate shape %+v", n, tor)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("torusFor(0) accepted")
		}
	}()
	torusFor(0)
}

func TestCoordRoundTrip(t *testing.T) {
	tor := torusFor(24)
	for n := 0; n < tor.nodes(); n++ {
		x, y, z := tor.coord(cluster.NodeID(n))
		if back := tor.nodeAt(x, y, z); back != cluster.NodeID(n) {
			t.Fatalf("nodeAt(coord(%d)) = %d", n, back)
		}
	}
}

func TestRouteProperties(t *testing.T) {
	tor := torusFor(64) // 4x4x4
	hops := func(a, b cluster.NodeID) int { return len(tor.route(a, b)) }
	// Self-route is empty.
	if hops(5, 5) != 0 {
		t.Fatal("self route not empty")
	}
	// Neighbour is one hop.
	a := tor.nodeAt(0, 0, 0)
	b := tor.nodeAt(0, 0, 1)
	if hops(a, b) != 1 {
		t.Fatalf("neighbour hops = %d", hops(a, b))
	}
	// Wrap-around: 0 -> 3 along one dim is one hop backwards on a size-4
	// ring.
	c := tor.nodeAt(0, 0, 3)
	if hops(a, c) != 1 {
		t.Fatalf("wrap-around hops = %d", hops(a, c))
	}
	// Maximum distance on a 4x4x4 torus is 2+2+2.
	far := tor.nodeAt(2, 2, 2)
	if hops(a, far) != 6 {
		t.Fatalf("far hops = %d, want 6", hops(a, far))
	}
	// Hop count symmetric.
	for _, pair := range [][2]cluster.NodeID{{0, 63}, {5, 42}, {17, 17}, {1, 32}} {
		if hops(pair[0], pair[1]) != hops(pair[1], pair[0]) {
			t.Fatalf("asymmetric hops for %v", pair)
		}
	}
}

func TestRouteLinksAreConnected(t *testing.T) {
	tor := torusFor(48)
	// A route must have at most X/2+Y/2+Z/2 hops.
	maxHops := tor.X/2 + tor.Y/2 + tor.Z/2
	for src := 0; src < tor.nodes(); src += 7 {
		for dst := 0; dst < tor.nodes(); dst += 5 {
			h := len(tor.route(cluster.NodeID(src), cluster.NodeID(dst)))
			if h > maxHops {
				t.Fatalf("route %d->%d has %d hops, max %d", src, dst, h, maxHops)
			}
		}
	}
}

func TestSimulateSingleNetworkFlow(t *testing.T) {
	tor := torusFor(8)
	flows := []cluster.Flow{{Src: 0, Dst: 1, Bytes: int64(linkBandwidth)}} // 1 second of data
	completion, _ := tor.simulate(flows)
	hops := float64(len(tor.route(0, 1)))
	want := 1.0 + linkLatency*hops + perFlowOverhead
	if math.Abs(completion[0]-want) > 1e-6 {
		t.Fatalf("completion = %v, want %v", completion[0], want)
	}
}

func TestSimulateShmFlow(t *testing.T) {
	tor := torusFor(4)
	flows := []cluster.Flow{{Src: 2, Dst: 2, Bytes: int64(shmBandwidth / 2)}}
	completion, _ := tor.simulate(flows)
	want := shmLatency + perFlowOverhead + 0.5
	if math.Abs(completion[0]-want) > 1e-6 {
		t.Fatalf("shm completion = %v, want %v", completion[0], want)
	}
}

// Two equal flows sharing the same single link must each get half the
// bandwidth: completion ~2x a lone flow.
func TestFairSharingOnSharedLink(t *testing.T) {
	tor := torusFor(8)
	bytes := int64(linkBandwidth / 10)
	_, lone := tor.simulate([]cluster.Flow{{Src: 0, Dst: 1, Bytes: bytes}})
	_, shared := tor.simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: bytes},
		{Src: 0, Dst: 1, Bytes: bytes},
	})
	ratio := shared / lone
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("sharing ratio = %v, want ~2", ratio)
	}
}

// Flows on disjoint paths must not slow each other down.
func TestDisjointFlowsIndependent(t *testing.T) {
	tor := torusFor(64)
	bytes := int64(linkBandwidth / 10)
	a := []cluster.Flow{{Src: tor.nodeAt(0, 0, 0), Dst: tor.nodeAt(0, 0, 1), Bytes: bytes}}
	b := []cluster.Flow{{Src: tor.nodeAt(2, 2, 2), Dst: tor.nodeAt(2, 2, 3), Bytes: bytes}}
	_, alone := tor.simulate(a)
	_, both := tor.simulate(append(a, b...))
	if math.Abs(both-alone) > 1e-9 {
		t.Fatalf("disjoint flows interfere: alone %v, together %v", alone, both)
	}
}

// A shorter flow must finish no later than a longer flow sharing its path.
func TestShorterFlowFinishesFirst(t *testing.T) {
	tor := torusFor(8)
	completion, _ := tor.simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: int64(linkBandwidth / 10)},
		{Src: 0, Dst: 1, Bytes: int64(linkBandwidth / 100)},
	})
	if completion[1] > completion[0] {
		t.Fatalf("short flow finished after long flow: %v vs %v", completion[1], completion[0])
	}
}

func TestZeroByteFlows(t *testing.T) {
	tor := torusFor(8)
	completion, _ := tor.simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: 0},
		{Src: 3, Dst: 3, Bytes: 0},
	})
	for i, c := range completion {
		if c < 0 || math.IsNaN(c) || c > 1e-3 {
			t.Fatalf("flow %d completion = %v", i, c)
		}
	}
}

func TestEmptyFlowSet(t *testing.T) {
	tor := torusFor(4)
	completion, makespan := tor.simulate(nil)
	if makespan != 0 || len(completion) != 0 {
		t.Fatalf("empty simulate = %v, %v", completion, makespan)
	}
}

// Weak-scaling contention: the same per-node traffic pattern on a bigger
// torus must not get faster, and all-to-one congestion must slow down as
// more senders pile on.
func TestContentionGrowsWithFanIn(t *testing.T) {
	tor := torusFor(64)
	bytes := int64(linkBandwidth / 20)
	mk := func(senders int) float64 {
		var flows []cluster.Flow
		for i := 1; i <= senders; i++ {
			flows = append(flows, cluster.Flow{Src: cluster.NodeID(i), Dst: 0, Bytes: bytes})
		}
		_, makespan := tor.simulate(flows)
		return makespan
	}
	t4, t16, t32 := mk(4), mk(16), mk(32)
	if !(t4 < t16 && t16 < t32) {
		t.Fatalf("fan-in congestion not monotone: %v, %v, %v", t4, t16, t32)
	}
}

// Merged flows (same src/dst) must behave like separate flows in terms of
// aggregate completion: N flows of B bytes over one path finish at the same
// time as one flow of N*B bytes (plus per-flow overheads).
func TestMergingPreservesAggregateTime(t *testing.T) {
	tor := torusFor(8)
	b := int64(linkBandwidth / 50)
	_, many := tor.simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: b}, {Src: 0, Dst: 1, Bytes: b}, {Src: 0, Dst: 1, Bytes: b},
	})
	_, one := tor.simulate([]cluster.Flow{{Src: 0, Dst: 1, Bytes: 3 * b}})
	// Difference should be only the two extra per-flow overheads.
	diff := many - one
	if diff < 0 || diff > 3*perFlowOverhead {
		t.Fatalf("merge mismatch: many %v, one %v", many, one)
	}
}

func BenchmarkSimulateManyFlows(b *testing.B) {
	tor := torusFor(64)
	var flows []cluster.Flow
	for i := 0; i < 1000; i++ {
		flows = append(flows, cluster.Flow{
			Src:   cluster.NodeID(i % 64),
			Dst:   cluster.NodeID((i * 7) % 64),
			Bytes: 1 << 20,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tor.simulate(flows)
	}
}
