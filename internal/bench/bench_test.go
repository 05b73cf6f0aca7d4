package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
	"github.com/insitu/cods/internal/runtime"
)

// parseGB reads a table cell produced by gb().
func parseGB(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestWeakScale(t *testing.T) {
	sc := SmallScale()
	s4, err := sc.WeakScale(4)
	if err != nil {
		t.Fatal(err)
	}
	if tasks(s4.CAP1Grid) != 4*tasks(sc.CAP1Grid) {
		t.Fatalf("CAP1 tasks = %d", tasks(s4.CAP1Grid))
	}
	// Per-task volume constant.
	volPerTask := func(s Scale, grid []int) int {
		v := 1
		for d, g := range grid {
			v *= s.Domain[d] / g
		}
		return v
	}
	if volPerTask(sc, sc.CAP1Grid) != volPerTask(s4, s4.CAP1Grid) {
		t.Fatal("weak scaling changed per-task volume")
	}
	if _, err := sc.WeakScale(3); err == nil {
		t.Fatal("non-power-of-two factor accepted")
	}
	if _, err := sc.WeakScale(0); err == nil {
		t.Fatal("zero factor accepted")
	}
}

func TestFig8ShapesSmall(t *testing.T) {
	tbl, err := Fig8(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Patterns()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Matching patterns (first three rows): data-centric strictly below
	// the launcher baseline.
	for i := 0; i < 3; i++ {
		rr := parseGB(t, tbl.Rows[i][1])
		dc := parseGB(t, tbl.Rows[i][2])
		if dc >= rr {
			t.Errorf("pattern %s: dc %.3f not below rr %.3f", tbl.Rows[i][0], dc, rr)
		}
	}
}

func TestFig9ShapesSmall(t *testing.T) {
	tbl, err := Fig9(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	rr := parseGB(t, tbl.Rows[0][1])
	dc := parseGB(t, tbl.Rows[0][2])
	if dc >= rr {
		t.Fatalf("blocked/blocked sequential: dc %.3f not below rr %.3f", dc, rr)
	}
}

func TestFig10FanOutShape(t *testing.T) {
	tbl, err := Fig10(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	// Matched blocked/blocked fan-out is small; mismatched blocked/cyclic
	// equals the producer task count.
	matched, err := strconv.ParseFloat(tbl.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	mismatched, err := strconv.ParseFloat(tbl.Rows[3][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if matched >= mismatched {
		t.Fatalf("fan-out: matched %.1f not below mismatched %.1f", matched, mismatched)
	}
}

func TestFig11DataCentricFaster(t *testing.T) {
	tbl, err := Fig11(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		rr, err1 := strconv.ParseFloat(row[1], 64)
		dc, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %v", row)
		}
		if dc > rr {
			t.Errorf("%s: data-centric %.1f slower than baseline %.1f", row[0], dc, rr)
		}
	}
}

func TestFig12SmallAppIncreases(t *testing.T) {
	tbl, err := Fig12(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	// CAP2's intra-app network bytes must not decrease under data-centric.
	rr := parseGB(t, tbl.Rows[1][1])
	dc := parseGB(t, tbl.Rows[1][2])
	if dc < rr {
		t.Fatalf("CAP2 intra-app: dc %.4f below rr %.4f", dc, rr)
	}
}

func TestFig14TotalsConsistent(t *testing.T) {
	tbl, err := Fig14(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		inter := parseGB(t, row[1])
		intra := parseGB(t, row[2])
		total := parseGB(t, row[3])
		if diff := inter + intra - total; diff > 0.001 || diff < -0.001 {
			t.Fatalf("row %v: breakdown does not sum", row)
		}
	}
	// Data-centric total below baseline total.
	if parseGB(t, tbl.Rows[1][3]) >= parseGB(t, tbl.Rows[0][3]) {
		t.Fatal("data-centric total not below baseline")
	}
}

func TestFig16Runs(t *testing.T) {
	tbl, err := Fig16(SmallScale(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAllSmall(t *testing.T) {
	tables, err := All(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 9 {
		t.Fatalf("All returned %d tables", len(tables))
	}
}

// TestPaperFiguresMatchResults regenerates every deterministic table
// codsbench writes, with codsbench's arguments, and holds both renderings to
// the committed results/ files byte for byte: Figures 8-15, staging, ratio,
// functional and the three ablations. The files are read in place and never
// rewritten by -update: a change to the mapping, decomposition, overlap
// arithmetic or torus model that moves a paper figure fails here. Figure 16
// runs its first two factors only and is held to the head of its CSV (the
// text rendering's column widths depend on all five rows); mapping-cost
// holds wall times and is not compared.
func TestPaperFiguresMatchResults(t *testing.T) {
	figs := []func(Scale) (*Table, error){
		Fig8, Fig9, Fig10, Fig11, Fig12, Fig13, Fig14, Fig15, StagingComparison,
		func(sc Scale) (*Table, error) { return RatioSweep(sc, nil) },
		func(Scale) (*Table, error) { return FunctionalComparison(SmallScale()) },
	}
	tables, err := Ablations(PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		tbl, err := fig(PaperScale())
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	for _, tbl := range tables {
		var txt, csv bytes.Buffer
		if err := tbl.Render(&txt); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CSV(&csv); err != nil {
			t.Fatal(err)
		}
		matchResult(t, tbl.ID+".txt", txt.Bytes(), false)
		matchResult(t, tbl.ID+".csv", csv.Bytes(), false)
	}

	fig16, err := Fig16(PaperScale(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := fig16.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	matchResult(t, fig16.ID+".csv", csv.Bytes(), true)
}

// matchResult compares got with results/<name>, or with the file's first
// len(got) bytes when prefix is set.
func matchResult(t *testing.T, name string, got []byte, prefix bool) {
	t.Helper()
	path := filepath.Join("..", "..", "results", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if prefix && len(want) > len(got) {
		want = want[:len(got)]
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
	}
}

// The analytic harness must agree with the executed workflows on every
// pattern and policy: the same placements move the same inter-application
// network bytes, to the byte.
func TestAnalyticMatchesFunctionalConcurrent(t *testing.T) {
	sc := SmallScale()
	for _, pat := range Patterns() {
		for _, policy := range []runtime.Policy{runtime.RoundRobin, runtime.DataCentric} {
			t.Run(pat.Name+" "+policy.String(), func(t *testing.T) {
				m, err := RunConcurrentFunctional(sc, pat, policy, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				cs, err := NewConcurrent(sc, pat)
				if err != nil {
					t.Fatal(err)
				}
				base, dc, err := cs.Placements()
				if err != nil {
					t.Fatal(err)
				}
				pl := base
				if policy == runtime.DataCentric {
					pl = dc
				}
				tr, err := mapping.CoupledTraffic(cs.Machine, pl, pl, cs.Prod, cs.Cons, ElemSize)
				if err != nil {
					t.Fatal(err)
				}
				if measured := m.Metrics().Bytes(cluster.InterApp, cluster.Network); measured != tr.Network {
					t.Fatalf("functional %d bytes != analytic %d bytes", measured, tr.Network)
				}
			})
		}
	}
}

// The sequential rows hold the same to the byte; a data-centric row also
// holds the runtime's lookup-based placement of the consumers to
// mapping.ClientDataCentricAnalytic.
func TestAnalyticMatchesFunctionalSequential(t *testing.T) {
	sc := SmallScale()
	for _, pat := range Patterns() {
		for _, policy := range []runtime.Policy{runtime.RoundRobin, runtime.DataCentric} {
			t.Run(pat.Name+" "+policy.String(), func(t *testing.T) {
				m, err := RunSequentialFunctional(sc, pat, policy, true)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := NewSequential(sc, pat)
				if err != nil {
					t.Fatal(err)
				}
				base, dc, err := ss.ConsumerPlacements()
				if err != nil {
					t.Fatal(err)
				}
				pl := base
				if policy == runtime.DataCentric {
					pl = dc
				}
				var want int64
				for _, cons := range []graph.App{ss.Cons2, ss.Cons3} {
					tr, err := mapping.CoupledTraffic(ss.Machine, ss.ProdPl, pl, ss.Prod, cons, ElemSize)
					if err != nil {
						t.Fatal(err)
					}
					want += tr.Network
				}
				if measured := m.Metrics().Bytes(cluster.InterApp, cluster.Network); measured != want {
					t.Fatalf("functional %d bytes != analytic %d bytes", measured, want)
				}
			})
		}
	}
}

func TestFunctionalComparisonTable(t *testing.T) {
	tbl, err := FunctionalComparison(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("x", "1")
	tbl.AddRow("y, with comma", `has "quotes"`)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "a note") {
		t.Fatalf("render output:\n%s", out)
	}
	buf.Reset()
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.Contains(csv, `"y, with comma"`) || !strings.Contains(csv, `"has ""quotes"""`) {
		t.Fatalf("csv output:\n%s", csv)
	}
}

func TestAblationLinearization(t *testing.T) {
	tbl, err := AblationLinearization()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		h, _ := strconv.Atoi(row[1])
		m, _ := strconv.Atoi(row[2])
		r, _ := strconv.Atoi(row[3])
		if h <= 0 || m <= 0 || r <= 0 {
			t.Fatalf("row %v", row)
		}
		if h > m || m > r {
			t.Errorf("query %s: spans not ordered hilbert %d <= morton %d <= row-major %d", row[0], h, m, r)
		}
	}
}

func TestAblationScheduleCache(t *testing.T) {
	tbl, err := AblationScheduleCache(5)
	if err != nil {
		t.Fatal(err)
	}
	onComps, _ := strconv.Atoi(tbl.Rows[0][1])
	offComps, _ := strconv.Atoi(tbl.Rows[1][1])
	if onComps != 1 || offComps != 5 {
		t.Fatalf("schedule computations on/off = %d/%d, want 1/5", onComps, offComps)
	}
	onBytes, _ := strconv.Atoi(tbl.Rows[0][3])
	offBytes, _ := strconv.Atoi(tbl.Rows[1][3])
	if onBytes >= offBytes {
		t.Fatalf("cache did not reduce control bytes: %d vs %d", onBytes, offBytes)
	}
}

func TestAblationPartitioner(t *testing.T) {
	tbl, err := AblationPartitioner(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	multilevel := parseGB(t, tbl.Rows[3][1])
	launcher := parseGB(t, tbl.Rows[0][1])
	if multilevel >= launcher {
		t.Fatalf("multilevel %.3f not below launcher %.3f", multilevel, launcher)
	}
}

func BenchmarkFig8Small(b *testing.B) {
	sc := SmallScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig8(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStagingComparison(t *testing.T) {
	tbl, err := StagingComparison(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	staging := parseGB(t, tbl.Rows[0][1])
	insitu := parseGB(t, tbl.Rows[1][1])
	if insitu >= staging {
		t.Fatalf("in-situ %.4f GB not below staging %.4f GB", insitu, staging)
	}
}

func TestRatioSweepAdvantageShrinks(t *testing.T) {
	tbl, err := RatioSweep(SmallScale(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	first := parseGB(t, tbl.Rows[0][3])
	last := parseGB(t, tbl.Rows[1][3])
	firstBase := parseGB(t, tbl.Rows[0][2])
	lastBase := parseGB(t, tbl.Rows[1][2])
	advFirst := firstBase / first
	advLast := lastBase / last
	if advLast >= advFirst {
		t.Fatalf("advantage did not shrink: halo1 %.2fx, halo8 %.2fx", advFirst, advLast)
	}
}

func TestMappingCostRuns(t *testing.T) {
	tbl, err := MappingCost(SmallScale(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}
