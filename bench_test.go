package cods_test

// One benchmark per reproduced figure of the paper's evaluation, plus the
// ablation studies from DESIGN.md. Each benchmark regenerates its figure's
// full data series per iteration.
//
// The benchmarks default to the laptop-sized SmallScale so `go test
// -bench=.` stays fast; set CODS_BENCH_SCALE=paper to run them at the
// paper's exact sizes (512/64 and 512/128+384 tasks over a 1024^3 domain —
// figure 16 then sweeps up to 8192 tasks and takes tens of seconds per
// iteration). `codsbench -fig all -scale paper` prints the same series as
// tables.

import (
	"os"
	"testing"

	"github.com/insitu/cods/internal/bench"
	"github.com/insitu/cods/internal/runtime"
)

func benchScale() bench.Scale {
	if os.Getenv("CODS_BENCH_SCALE") == "paper" {
		return bench.PaperScale()
	}
	return bench.SmallScale()
}

func runFig(b *testing.B, fn func(bench.Scale) (*bench.Table, error)) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig08 regenerates Figure 8: concurrent-coupling network bytes,
// data-centric vs round-robin, across decomposition patterns.
func BenchmarkFig08(b *testing.B) { runFig(b, bench.Fig8) }

// BenchmarkFig09 regenerates Figure 9: sequential-coupling network bytes.
func BenchmarkFig09(b *testing.B) { runFig(b, bench.Fig9) }

// BenchmarkFig10 regenerates Figure 10: producer fan-out per consumer task.
func BenchmarkFig10(b *testing.B) { runFig(b, bench.Fig10) }

// BenchmarkFig11 regenerates Figure 11: coupled-data retrieval times.
func BenchmarkFig11(b *testing.B) { runFig(b, bench.Fig11) }

// BenchmarkFig12 regenerates Figure 12: concurrent intra-app network bytes.
func BenchmarkFig12(b *testing.B) { runFig(b, bench.Fig12) }

// BenchmarkFig13 regenerates Figure 13: sequential intra-app network bytes.
func BenchmarkFig13(b *testing.B) { runFig(b, bench.Fig13) }

// BenchmarkFig14 regenerates Figure 14: concurrent communication breakdown.
func BenchmarkFig14(b *testing.B) { runFig(b, bench.Fig14) }

// BenchmarkFig15 regenerates Figure 15: sequential communication breakdown.
func BenchmarkFig15(b *testing.B) { runFig(b, bench.Fig15) }

// BenchmarkFig16 regenerates Figure 16: weak scaling of retrieval time
// (restricted to factors 1-4 at small scale to bound benchmark time; the
// paper-scale run uses the full 16x sweep).
func BenchmarkFig16(b *testing.B) {
	sc := benchScale()
	factors := []int{1, 2, 4}
	if os.Getenv("CODS_BENCH_SCALE") == "paper" {
		factors = []int{1, 2, 4, 8, 16}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig16(sc, factors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalConcurrent executes (not just computes) the
// concurrent workflow: real execution clients, puts, pulls and metering.
func BenchmarkFunctionalConcurrent(b *testing.B) {
	sc := bench.SmallScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunConcurrentFunctional(sc, bench.Patterns()[0], runtime.DataCentric, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalSequential executes the sequential workflow.
func BenchmarkFunctionalSequential(b *testing.B) {
	sc := bench.SmallScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunSequentialFunctional(sc, bench.Patterns()[0], runtime.DataCentric, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLinearization compares Hilbert vs row-major span counts
// (DESIGN.md ablation 1).
func BenchmarkAblationLinearization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationLinearization(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScheduleCache measures schedule-cache savings
// (DESIGN.md ablation 2).
func BenchmarkAblationScheduleCache(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationScheduleCache(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartitioner compares partitioner variants (DESIGN.md
// ablation 3).
func BenchmarkAblationPartitioner(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationPartitioner(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStagingComparison regenerates the staging-area vs in-situ
// comparison (paper Section VI, quantified).
func BenchmarkStagingComparison(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.StagingComparison(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRatioSweep regenerates the coupling/exchange ratio sweep
// (paper Section V-B's applicability condition).
func BenchmarkRatioSweep(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RatioSweep(sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}
