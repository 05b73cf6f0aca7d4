package main

// The A/A check: two sets of runs of the same binary must agree within the
// benchmark's own bounds, or no later A/B comparison means anything.

import (
	"fmt"
	"math"
	"path/filepath"
)

// aaRow compares the two sets on one workload/metric. A pair is resolved
// when neither set's own spread exceeds the bound: a median pair that
// happens to agree while its sets are wider than the bound has shown
// nothing, and counts as a failure like a pair that disagrees.
type aaRow struct {
	Metric   string  `json:"metric"` // workload/metric
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	RelDiff  float64 `json:"rel_diff"` // |B-A| / A
	SpreadA  float64 `json:"spread_a"` // interquartile range / median of set A
	SpreadB  float64 `json:"spread_b"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
	Resolved bool    `json:"resolved"`
	// RawRelDiff is the same difference between the sets' wall-clock
	// medians, before the host-speed index (timing metrics only).
	RawRelDiff float64 `json:"raw_rel_diff,omitempty"`
}

type aaOutput struct {
	Env     env     `json:"env"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	N       int     `json:"invocations_per_set"`
	Rows    []aaRow `json:"rows"`
	Pass    bool    `json:"pass"`
	// WorstTiming is the largest rel_diff among the timing metrics, to hold
	// against the 0.10 ISSUE 14 asked for whatever the declared bounds are.
	WorstTiming float64 `json:"worst_timing_rel_diff"`
}

func spreadOf(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}

// runAA runs n rounds; in each, every workload is run once for set A and
// once for set B back to back, in a fresh process each, the set that goes
// first alternating from round to round. The two runs of a pair are half a
// minute apart, so what the host does over a quarter of an hour falls on
// both sets alike.
func runAA(cfg runConfig, n int) error {
	cfg.Trace = false
	sets := [2]map[string][]float64{{}, {}}
	raws := [2]map[string][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, def := range workloads {
			cfg.Workload = def.Name
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				res, err := spawnRun(cfg, true)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: incorrect run in set %c", def.Name, 'A'+set)
				}
				for _, d := range endToEnd {
					key := def.Name + "/" + d.Name
					sets[set][key] = append(sets[set][key], res.Metrics[d.Name].Value)
					if raw, ok := res.Raw[d.Name]; ok {
						raws[set][key] = append(raws[set][key], raw)
					}
				}
				fmt.Printf("%c%d %-20s steps_per_s %.4g step_p50_ms %.4g cpu_ms_per_step %.4g setup_s %.4g host index %.3f\n",
					'A'+set, i+1, def.Name, res.Metrics["steps_per_s"].Value, res.Metrics["step_p50_ms"].Value,
					res.Metrics["cpu_ms_per_step"].Value, res.Metrics["setup_s"].Value, res.Raw["host_index"])
			}
		}
	}
	out := aaOutput{Env: currentEnv(), Seed: cfg.Seed, Seconds: cfg.Seconds, N: n, Pass: true}
	for _, def := range workloads {
		for _, d := range endToEnd {
			key := def.Name + "/" + d.Name
			a, b := sets[0][key], sets[1][key]
			row := aaRow{Metric: key, Unit: d.Unit, MedianA: median(a), MedianB: median(b), Bound: d.Bound,
				SpreadA: spreadOf(a), SpreadB: spreadOf(b)}
			row.RelDiff = relDiff(row.MedianA, row.MedianB)
			row.Within = row.RelDiff <= d.Bound
			row.Resolved = row.SpreadA <= d.Bound && row.SpreadB <= d.Bound
			verdict := "ok"
			switch {
			case !row.Within:
				verdict = "EXCEEDED"
			case !row.Resolved:
				verdict = "UNRESOLVED (a set spreads wider than the bound)"
			}
			if ra, rb := raws[0][key], raws[1][key]; len(ra) > 0 {
				row.RawRelDiff = relDiff(median(ra), median(rb))
				out.WorstTiming = math.Max(out.WorstTiming, row.RelDiff)
			}
			out.Pass = out.Pass && row.Within && row.Resolved
			out.Rows = append(out.Rows, row)
			fmt.Printf("%-38s A %-12.6g B %-12.6g diff %6.2f%% (wall clock %6.2f%%) spread %5.2f%% %5.2f%% bound %5.1f%% %s\n",
				key, row.MedianA, row.MedianB, 100*row.RelDiff, 100*row.RawRelDiff, 100*row.SpreadA, 100*row.SpreadB,
				100*d.Bound, verdict)
		}
	}
	fmt.Printf("largest difference on a timing metric: %.2f%% (ISSUE 14 asked for at most 10%%)\n", 100*out.WorstTiming)
	if err := writeJSON(filepath.Join(cfg.OutDir, fmt.Sprintf("aa-seed%d.json", cfg.Seed)), out); err != nil {
		return err
	}
	if !out.Pass {
		return fmt.Errorf("two sets of runs of the same binary disagree by more than a bound, or spread wider than it")
	}
	return nil
}
