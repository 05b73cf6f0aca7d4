package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
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

// TestWeakScale: a factor multiplies every application's task count and
// keeps its per-task volume, and the machine grows to the largest stage
// over the cores, rounded up: SAP1's 2,048 tasks at x4 on 12-core nodes
// take 171 nodes.
func TestWeakScale(t *testing.T) {
	for _, sc := range []Scale{SmallScale(), PaperScale()} {
		s4, err := sc.WeakScale(4)
		if err != nil {
			t.Fatal(err)
		}
		for _, coupling := range []string{"concurrent", "sequential"} {
			base, err := sc.dag(coupling, "blocked/blocked")
			if err != nil {
				t.Fatal(err)
			}
			scaled, err := s4.dag(coupling, "blocked/blocked")
			if err != nil {
				t.Fatal(err)
			}
			for id, spec := range base.Decomps {
				n, n4 := tasks(spec.Grid), tasks(scaled.Decomps[id].Grid)
				if n4 != 4*n {
					t.Errorf("%s %s app %d: %d tasks at x4, %d at x1", sc.Name, coupling, id, n4, n)
				}
				if tasks(base.Domain)/n != tasks(scaled.Domain)/n4 {
					t.Errorf("%s %s app %d: weak scaling changed per-task volume", sc.Name, coupling, id)
				}
			}
		}
	}
	s4, err := PaperScale().WeakScale(4)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s4.scenario("sequential", "blocked/blocked")
	if err != nil {
		t.Fatal(err)
	}
	if n := ss.Machine.NumNodes(); n != 171 {
		t.Errorf("paper sequential x4 machine: %d nodes, want 171", n)
	}
	if _, err := SmallScale().WeakScale(3); err == nil {
		t.Fatal("non-power-of-two factor accepted")
	}
	if _, err := SmallScale().WeakScale(0); err == nil {
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

// analyticScales are the file sets the executed check runs: every small
// file, and every paper file on its own 128^3 domain (no Domain override).
var analyticScales = []Scale{SmallScale(), {Name: "paper"}}

// skipPaperFile skips a paper file that cannot run in tier-1 time: a cyclic
// pattern executes in minutes until ROADMAP item 20, and under -race only
// blocked/blocked runs (about 2.6 s of the race run, against 19.6 s for
// all six non-cyclic files).
func skipPaperFile(t *testing.T, sc Scale, pat string) {
	t.Helper()
	switch {
	case sc.Name != "paper":
	case slices.Contains(strings.Split(pat, "/"), "cyclic"):
		t.Skip("a cyclic paper file executes in minutes; it joins with ROADMAP item 20")
	case raceEnabled && pat != "blocked/blocked":
		t.Skip("under -race only blocked/blocked runs at the paper's task counts")
	}
}

// analyticName names a subtest by pattern and policy, paper files prefixed.
func analyticName(sc Scale, pat string, policy runtime.Policy) string {
	name := pat + " " + policy.String()
	if sc.Name == "paper" {
		name = "paper " + name
	}
	return name
}

// The analytic harness must agree with the executed workflows on every
// pattern and policy: the same placements move the same inter-application
// network bytes, to the byte.
func TestAnalyticMatchesFunctionalConcurrent(t *testing.T) {
	for _, sc := range analyticScales {
		for _, pat := range Patterns() {
			for _, policy := range []runtime.Policy{runtime.RoundRobin, runtime.DataCentric} {
				t.Run(analyticName(sc, pat, policy), func(t *testing.T) {
					skipPaperFile(t, sc, pat)
					m, err := RunConcurrentFunctional(sc, pat, policy, 1, true)
					if err != nil {
						t.Fatal(err)
					}
					cs, err := sc.scenario("concurrent", pat)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cs.CoupledNetwork(policy)
					if err != nil {
						t.Fatal(err)
					}
					if measured := m.Metrics().Bytes(cluster.InterApp, cluster.Network); measured != want {
						t.Fatalf("functional %d bytes != analytic %d bytes", measured, want)
					}
				})
			}
		}
	}
}

// The sequential rows hold the same to the byte; a data-centric row also
// holds the runtime's lookup-based placement of the consumers to
// mapping.ClientDataCentricAnalytic. Under the race detector the two small
// cyclic/cyclic rows, about 48 s of the run there, are skipped: the plain
// run holds all ten, and blocked/cyclic keeps cyclic consumers in the race
// run.
func TestAnalyticMatchesFunctionalSequential(t *testing.T) {
	for _, sc := range analyticScales {
		for _, pat := range Patterns() {
			for _, policy := range []runtime.Policy{runtime.RoundRobin, runtime.DataCentric} {
				t.Run(analyticName(sc, pat, policy), func(t *testing.T) {
					skipPaperFile(t, sc, pat)
					if raceEnabled && strings.HasPrefix(pat, "cyclic/") {
						t.Skip("a cyclic producer runs only without -race")
					}
					m, err := RunSequentialFunctional(sc, pat, policy, true)
					if err != nil {
						t.Fatal(err)
					}
					ss, err := sc.scenario("sequential", pat)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ss.CoupledNetwork(policy)
					if err != nil {
						t.Fatal(err)
					}
					if measured := m.Metrics().Bytes(cluster.InterApp, cluster.Network); measured != want {
						t.Fatalf("functional %d bytes != analytic %d bytes", measured, want)
					}
				})
			}
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
