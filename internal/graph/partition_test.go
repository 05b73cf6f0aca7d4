package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildGraph constructs a symmetric graph from an edge list.
func buildGraph(n int, vwgt []int64, edges [][3]int64) *Graph {
	g := &Graph{VWgt: make([]int64, n), Adj: make([][]Edge, n)}
	for i := 0; i < n; i++ {
		if vwgt != nil {
			g.VWgt[i] = vwgt[i]
		} else {
			g.VWgt[i] = 1
		}
	}
	for _, e := range edges {
		u, v, w := int(e[0]), int(e[1]), e[2]
		g.Adj[u] = append(g.Adj[u], Edge{To: v, Wgt: w})
		g.Adj[v] = append(g.Adj[v], Edge{To: u, Wgt: w})
	}
	return g
}

// twoCliques builds two k-cliques with heavy internal edges joined by one
// light bridge; the optimal bipartition separates the cliques.
func twoCliques(size int) *Graph {
	n := 2 * size
	var edges [][3]int64
	for c := 0; c < 2; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, [3]int64{int64(base + i), int64(base + j), 100})
			}
		}
	}
	edges = append(edges, [3]int64{0, int64(size), 1})
	return buildGraph(n, nil, edges)
}

func checkPartition(t *testing.T, g *Graph, parts []int, k int, cap int64) {
	t.Helper()
	if len(parts) != g.numVertices() {
		t.Fatalf("parts length %d != vertices %d", len(parts), g.numVertices())
	}
	for v, p := range parts {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d in invalid part %d", v, p)
		}
	}
	for p, w := range partWeights(g, parts, k) {
		if w > cap {
			t.Fatalf("part %d weight %d exceeds capacity %d", p, w, cap)
		}
	}
}

func TestValidate(t *testing.T) {
	good := buildGraph(3, nil, [][3]int64{{0, 1, 5}, {1, 2, 2}})
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Graph{VWgt: []int64{1, 1}, Adj: [][]Edge{{{To: 1, Wgt: 3}}, {}}}
	if err := bad.validate(); err == nil {
		t.Error("asymmetric graph validated")
	}
	loop := &Graph{VWgt: []int64{1}, Adj: [][]Edge{{{To: 0, Wgt: 1}}}}
	if err := loop.validate(); err == nil {
		t.Error("self loop validated")
	}
	zero := &Graph{VWgt: []int64{0}, Adj: [][]Edge{nil}}
	if err := zero.validate(); err == nil {
		t.Error("zero vertex weight validated")
	}
}

func TestKWayValidation(t *testing.T) {
	g := buildGraph(4, nil, nil)
	if _, err := KWay(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KWay(g, 2, Options{MaxPartWeight: 1}); err == nil {
		t.Error("insufficient capacity accepted")
	}
	heavy := buildGraph(1, []int64{10}, nil)
	if _, err := KWay(heavy, 2, Options{MaxPartWeight: 5}); err == nil {
		t.Error("oversized vertex accepted")
	}
}

func TestKWayEmptyGraph(t *testing.T) {
	g := &Graph{}
	parts, err := KWay(g, 3, Options{})
	if err != nil || len(parts) != 0 {
		t.Fatalf("empty graph: %v, %v", parts, err)
	}
}

func TestKWaySeparatesCliques(t *testing.T) {
	g := twoCliques(8)
	parts, err := KWay(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, parts, 2, 8)
	if cut := edgeCut(g, parts); cut != 1 {
		t.Fatalf("edge cut = %d, want 1 (only the bridge)", cut)
	}
}

func TestKWayFourCliquesFourParts(t *testing.T) {
	// Four 6-cliques in a ring with light bridges.
	size, k := 6, 4
	n := size * k
	var edges [][3]int64
	for c := 0; c < k; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, [3]int64{int64(base + i), int64(base + j), 50})
			}
		}
		next := ((c + 1) % k) * size
		edges = append(edges, [3]int64{int64(base), int64(next), 1})
	}
	g := buildGraph(n, nil, edges)
	parts, err := KWay(g, k, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, parts, k, int64(size))
	if cut := edgeCut(g, parts); cut != int64(k) {
		t.Fatalf("edge cut = %d, want %d (only bridges)", cut, k)
	}
}

func TestKWayStrictCapacity(t *testing.T) {
	// A star graph strains balance: the hub attracts everything, but the
	// capacity forces spreading.
	n := 12
	var edges [][3]int64
	for v := 1; v < n; v++ {
		edges = append(edges, [3]int64{0, int64(v), 10})
	}
	g := buildGraph(n, nil, edges)
	parts, err := KWay(g, 4, Options{Seed: 9, MaxPartWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, parts, 4, 3)
}

func TestKWayDisconnectedGraph(t *testing.T) {
	g := buildGraph(9, nil, nil) // no edges at all
	parts, err := KWay(g, 3, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, parts, 3, 3)
}

func TestKWayWeightedVertices(t *testing.T) {
	g := buildGraph(6, []int64{4, 1, 1, 4, 1, 1}, [][3]int64{
		{0, 1, 5}, {1, 2, 5}, {3, 4, 5}, {4, 5, 5}, {2, 3, 1},
	})
	parts, err := KWay(g, 2, Options{Seed: 7, MaxPartWeight: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, parts, 2, 6)
	if cut := edgeCut(g, parts); cut > 5 {
		t.Fatalf("edge cut = %d, expected the light bridge region (<=5)", cut)
	}
}

func TestKWayDeterministicForSeed(t *testing.T) {
	g := twoCliques(10)
	a, err := KWay(g, 2, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KWay(g, 2, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestSingleLevelOption(t *testing.T) {
	g := twoCliques(8)
	parts, err := KWay(g, 2, Options{Seed: 1, SingleLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, parts, 2, 8)
	// Single-level should still find the obvious split on this easy graph.
	if cut := edgeCut(g, parts); cut != 1 {
		t.Fatalf("single-level cut = %d", cut)
	}
}

func TestMultilevelBeatsOrEqualsRandomOnGrid(t *testing.T) {
	// A 2-D grid graph: multilevel partitioning should cut far fewer
	// edges than a random assignment.
	const side = 12
	n := side * side
	var edges [][3]int64
	id := func(i, j int) int64 { return int64(i*side + j) }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if i+1 < side {
				edges = append(edges, [3]int64{id(i, j), id(i+1, j), 1})
			}
			if j+1 < side {
				edges = append(edges, [3]int64{id(i, j), id(i, j+1), 1})
			}
		}
	}
	g := buildGraph(n, nil, edges)
	k := 9
	parts, err := KWay(g, k, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, parts, k, int64(n/k))
	cut := edgeCut(g, parts)

	rng := rand.New(rand.NewSource(5))
	randomParts := make([]int, n)
	for i := range randomParts {
		randomParts[i] = rng.Intn(k)
	}
	randomCut := edgeCut(g, randomParts)
	if cut*2 >= randomCut {
		t.Fatalf("multilevel cut %d not clearly better than random cut %d", cut, randomCut)
	}
}

func TestEdgeCutAndPartWeights(t *testing.T) {
	g := buildGraph(4, []int64{1, 2, 3, 4}, [][3]int64{{0, 1, 5}, {2, 3, 7}, {1, 2, 11}})
	parts := []int{0, 0, 1, 1}
	if cut := edgeCut(g, parts); cut != 11 {
		t.Fatalf("edgeCut = %d", cut)
	}
	w := partWeights(g, parts, 2)
	if w[0] != 3 || w[1] != 7 {
		t.Fatalf("partWeights = %v", w)
	}
}

func TestQuickPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		n := 4 + rng.Intn(40)
		k := 1 + rng.Intn(4)
		var edges [][3]int64
		for e := 0; e < n*2; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			// Deduplicate crudely by skipping duplicates later via map.
			edges = append(edges, [3]int64{int64(u), int64(v), int64(1 + rng.Intn(20))})
		}
		// Merge duplicate pairs.
		merged := map[[2]int]int64{}
		for _, e := range edges {
			u, v := int(e[0]), int(e[1])
			if u > v {
				u, v = v, u
			}
			merged[[2]int{u, v}] += e[2]
		}
		var clean [][3]int64
		for p, w := range merged {
			clean = append(clean, [3]int64{int64(p[0]), int64(p[1]), w})
		}
		g := buildGraph(n, nil, clean)
		if err := g.validate(); err != nil {
			return false
		}
		cap := int64((n + k - 1) / k)
		parts, err := KWay(g, k, Options{Seed: int64(n * k), MaxPartWeight: cap})
		if err != nil {
			return false
		}
		for _, p := range parts {
			if p < 0 || p >= k {
				return false
			}
		}
		for _, w := range partWeights(g, parts, k) {
			if w > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKWayGrid(b *testing.B) {
	const side = 24
	n := side * side
	var edges [][3]int64
	id := func(i, j int) int64 { return int64(i*side + j) }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if i+1 < side {
				edges = append(edges, [3]int64{id(i, j), id(i+1, j), 1})
			}
			if j+1 < side {
				edges = append(edges, [3]int64{id(i, j), id(i, j+1), 1})
			}
		}
	}
	g := buildGraph(n, nil, edges)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KWay(g, 48, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
