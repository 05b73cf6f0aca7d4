package netsim

import (
	"math"
	"testing"

	"github.com/insitu/cods/internal/cluster"
)

func sim(t testing.TB, nodes int) *Simulator {
	t.Helper()
	s, err := New(DefaultConfig(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

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
		tor, err := TorusFor(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if tor.X != c.x || tor.Y != c.y || tor.Z != c.z {
			t.Errorf("TorusFor(%d) = %+v, want %d,%d,%d", c.n, tor, c.x, c.y, c.z)
		}
	}
	// Awkward counts get a covering, non-degenerate box.
	for _, n := range []int{7, 12, 43, 48, 86, 173, 769} {
		tor, err := TorusFor(n)
		if err != nil {
			t.Fatal(err)
		}
		if tor.Nodes() < n {
			t.Fatalf("TorusFor(%d) covers only %d nodes", n, tor.Nodes())
		}
		if float64(tor.Nodes()) > 2.5*float64(n) {
			t.Fatalf("TorusFor(%d) wastes too much: %+v", n, tor)
		}
		dims := []int{tor.X, tor.Y, tor.Z}
		lo, hi := dims[0], dims[0]
		for _, d := range dims[1:] {
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		if n >= 8 && hi > 8*lo {
			t.Fatalf("TorusFor(%d) degenerate shape %+v", n, tor)
		}
	}
	if _, err := TorusFor(0); err == nil {
		t.Fatal("TorusFor(0) accepted")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	tor, _ := TorusFor(24)
	for n := 0; n < tor.Nodes(); n++ {
		x, y, z := tor.Coord(cluster.NodeID(n))
		if back := tor.NodeAt(x, y, z); back != cluster.NodeID(n) {
			t.Fatalf("NodeAt(Coord(%d)) = %d", n, back)
		}
	}
}

func TestRouteProperties(t *testing.T) {
	tor, _ := TorusFor(64) // 4x4x4
	// Self-route is empty.
	if len(tor.Route(5, 5)) != 0 {
		t.Fatal("self route not empty")
	}
	// Neighbour is one hop.
	a := tor.NodeAt(0, 0, 0)
	b := tor.NodeAt(0, 0, 1)
	if tor.Hops(a, b) != 1 {
		t.Fatalf("neighbour hops = %d", tor.Hops(a, b))
	}
	// Wrap-around: 0 -> 3 along one dim is one hop backwards on a size-4
	// ring.
	c := tor.NodeAt(0, 0, 3)
	if tor.Hops(a, c) != 1 {
		t.Fatalf("wrap-around hops = %d", tor.Hops(a, c))
	}
	// Maximum distance on a 4x4x4 torus is 2+2+2.
	far := tor.NodeAt(2, 2, 2)
	if tor.Hops(a, far) != 6 {
		t.Fatalf("far hops = %d, want 6", tor.Hops(a, far))
	}
	// Hop count symmetric.
	for _, pair := range [][2]cluster.NodeID{{0, 63}, {5, 42}, {17, 17}, {1, 32}} {
		if tor.Hops(pair[0], pair[1]) != tor.Hops(pair[1], pair[0]) {
			t.Fatalf("asymmetric hops for %v", pair)
		}
	}
}

func TestRouteLinksAreConnected(t *testing.T) {
	tor, _ := TorusFor(48)
	// A route must have at most X/2+Y/2+Z/2 hops.
	maxHops := tor.X/2 + tor.Y/2 + tor.Z/2
	for src := 0; src < tor.Nodes(); src += 7 {
		for dst := 0; dst < tor.Nodes(); dst += 5 {
			h := tor.Hops(cluster.NodeID(src), cluster.NodeID(dst))
			if h > maxHops {
				t.Fatalf("route %d->%d has %d hops, max %d", src, dst, h, maxHops)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkBandwidth = 0
	if _, err := New(cfg, 4); err == nil {
		t.Error("zero bandwidth accepted")
	}
	cfg = DefaultConfig()
	cfg.LinkLatency = -1
	if _, err := New(cfg, 4); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestSimulateSingleNetworkFlow(t *testing.T) {
	s := sim(t, 8)
	cfg := DefaultConfig()
	flows := []cluster.Flow{{Src: 0, Dst: 1, Bytes: int64(cfg.LinkBandwidth)}} // 1 second of data
	res := s.Simulate(flows)
	hops := float64(s.Torus().Hops(0, 1))
	want := 1.0 + cfg.LinkLatency*hops + cfg.PerFlowOverhead
	if math.Abs(res.Completion[0]-want) > 1e-6 {
		t.Fatalf("completion = %v, want %v", res.Completion[0], want)
	}
	if res.NetworkBytes != flows[0].Bytes || res.ShmBytes != 0 {
		t.Fatalf("byte accounting wrong: %+v", res)
	}
}

func TestSimulateShmFlow(t *testing.T) {
	s := sim(t, 4)
	cfg := DefaultConfig()
	flows := []cluster.Flow{{Src: 2, Dst: 2, Bytes: int64(cfg.ShmBandwidth / 2)}}
	res := s.Simulate(flows)
	want := cfg.ShmLatency + cfg.PerFlowOverhead + 0.5
	if math.Abs(res.Completion[0]-want) > 1e-6 {
		t.Fatalf("shm completion = %v, want %v", res.Completion[0], want)
	}
	if res.ShmBytes != flows[0].Bytes || res.NetworkBytes != 0 {
		t.Fatalf("byte accounting wrong: %+v", res)
	}
}

// Two equal flows sharing the same single link must each get half the
// bandwidth: completion ~2x a lone flow.
func TestFairSharingOnSharedLink(t *testing.T) {
	s := sim(t, 8)
	cfg := DefaultConfig()
	bytes := int64(cfg.LinkBandwidth / 10)
	lone := s.Simulate([]cluster.Flow{{Src: 0, Dst: 1, Bytes: bytes}}).Makespan
	shared := s.Simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: bytes},
		{Src: 0, Dst: 1, Bytes: bytes},
	}).Makespan
	ratio := shared / lone
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("sharing ratio = %v, want ~2", ratio)
	}
}

// Flows on disjoint paths must not slow each other down.
func TestDisjointFlowsIndependent(t *testing.T) {
	s := sim(t, 64)
	tor := s.Torus()
	cfg := DefaultConfig()
	bytes := int64(cfg.LinkBandwidth / 10)
	a := []cluster.Flow{{Src: tor.NodeAt(0, 0, 0), Dst: tor.NodeAt(0, 0, 1), Bytes: bytes}}
	b := []cluster.Flow{{Src: tor.NodeAt(2, 2, 2), Dst: tor.NodeAt(2, 2, 3), Bytes: bytes}}
	alone := s.Simulate(a).Makespan
	both := s.Simulate(append(a, b...)).Makespan
	if math.Abs(both-alone) > 1e-9 {
		t.Fatalf("disjoint flows interfere: alone %v, together %v", alone, both)
	}
}

// A shorter flow must finish no later than a longer flow sharing its path.
func TestShorterFlowFinishesFirst(t *testing.T) {
	s := sim(t, 8)
	cfg := DefaultConfig()
	res := s.Simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: int64(cfg.LinkBandwidth / 10)},
		{Src: 0, Dst: 1, Bytes: int64(cfg.LinkBandwidth / 100)},
	})
	if res.Completion[1] > res.Completion[0] {
		t.Fatalf("short flow finished after long flow: %v vs %v", res.Completion[1], res.Completion[0])
	}
}

func TestZeroByteFlows(t *testing.T) {
	s := sim(t, 8)
	res := s.Simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: 0},
		{Src: 3, Dst: 3, Bytes: 0},
	})
	for i, c := range res.Completion {
		if c < 0 || math.IsNaN(c) || c > 1e-3 {
			t.Fatalf("flow %d completion = %v", i, c)
		}
	}
}

func TestEmptyFlowSet(t *testing.T) {
	s := sim(t, 4)
	res := s.Simulate(nil)
	if res.Makespan != 0 || len(res.Completion) != 0 {
		t.Fatalf("empty simulate = %+v", res)
	}
}

// Weak-scaling contention: the same per-node traffic pattern on a bigger
// torus must not get faster, and all-to-one congestion must slow down as
// more senders pile on.
func TestContentionGrowsWithFanIn(t *testing.T) {
	s := sim(t, 64)
	cfg := DefaultConfig()
	bytes := int64(cfg.LinkBandwidth / 20)
	mk := func(senders int) float64 {
		var flows []cluster.Flow
		for i := 1; i <= senders; i++ {
			flows = append(flows, cluster.Flow{Src: cluster.NodeID(i), Dst: 0, Bytes: bytes})
		}
		return s.Simulate(flows).Makespan
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
	s := sim(t, 8)
	cfg := DefaultConfig()
	b := int64(cfg.LinkBandwidth / 50)
	many := s.Simulate([]cluster.Flow{
		{Src: 0, Dst: 1, Bytes: b}, {Src: 0, Dst: 1, Bytes: b}, {Src: 0, Dst: 1, Bytes: b},
	})
	one := s.Simulate([]cluster.Flow{{Src: 0, Dst: 1, Bytes: 3 * b}})
	// Difference should be only the two extra per-flow overheads.
	diff := many.Makespan - one.Makespan
	if diff < 0 || diff > 3*cfg.PerFlowOverhead {
		t.Fatalf("merge mismatch: many %v, one %v", many.Makespan, one.Makespan)
	}
}

func TestPhaseTime(t *testing.T) {
	s := sim(t, 4)
	m := cluster.NewMetrics()
	m.Record("couple:A", cluster.InterApp, cluster.Network, 1, 0, 1, 1e6)
	m.Record("halo:B", cluster.IntraApp, cluster.Network, 1, 1, 2, 1e9)
	short := s.PhaseTime(m, "couple:")
	all := s.PhaseTime(m, "")
	if short <= 0 || all <= short {
		t.Fatalf("phase times wrong: couple %v, all %v", short, all)
	}
}

func BenchmarkSimulateManyFlows(b *testing.B) {
	s := sim(b, 64)
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
		s.Simulate(flows)
	}
}

func TestLinkLoadAccounting(t *testing.T) {
	s := sim(t, 8)
	tor := s.Torus()
	a, b := tor.NodeAt(0, 0, 0), tor.NodeAt(0, 0, 1)
	res := s.Simulate([]cluster.Flow{
		{Src: a, Dst: b, Bytes: 100},
		{Src: a, Dst: b, Bytes: 50},
		{Src: b, Dst: a, Bytes: 30}, // opposite direction: separate link
	})
	if res.MaxLinkBytes != 150 {
		t.Fatalf("MaxLinkBytes = %d, want 150", res.MaxLinkBytes)
	}
	// One hop each way.
	if res.TotalHopBytes != 180 {
		t.Fatalf("TotalHopBytes = %d, want 180", res.TotalHopBytes)
	}
	// Shm-only simulation carries nothing on links.
	res = s.Simulate([]cluster.Flow{{Src: a, Dst: a, Bytes: 99}})
	if res.MaxLinkBytes != 0 || res.TotalHopBytes != 0 {
		t.Fatalf("shm flow loaded links: %+v", res)
	}
}
