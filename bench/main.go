// Command bench is the repository's benchmark: four fixed-work, closed-loop,
// single-client coupling workloads — three through a driver connected to
// two real codsnode processes over loopback TCP with no simulated latency,
// one through the in-process runtime — reporting seven end-to-end metrics
// per workload and, from a separate traced run, per-layer metrics timed
// from here around each package's exported calls. See README.md.
//
//	bash bench/run.sh                      every workload, untraced then traced
//	bash bench/run.sh -workload W -trace 0 one run of one workload
//	bash bench/run.sh -aa 5                two alternating sets of five invocations
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds, so that a bare run, the
// A/A check and the harness all measure the same amount of work.
const defaultSeconds = 16

// runTimeout is how long a single run may take before the watchdog kills
// the children and exits non-zero; the harness allows 180 s.
const runTimeout = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: every workload, one fresh process each)")
		seed     = flag.Int64("seed", 1, "workload generator seed; the program sees generated inputs, never the seed")
		seconds  = flag.Float64("seconds", defaultSeconds, "timed work of a run, in seconds on the reference box; fixes the number of steps")
		trace    = flag.Int("trace", 0, "1 = the traced run: spans around every call, decomposed gets, per-layer probes")
		scale    = flag.String("scale", "full", "full, or tiny for the smoke test")
		codsnode = flag.String("codsnode", "", "path to the codsnode binary (default: next to this executable)")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for BENCH_<label>.json, traces and A/A results")
		resultTo = flag.String("result", "", "with -workload, also write the run's whole result to this file as JSON")
		label    = flag.String("label", "local", "label of the full run's output file")
		aa       = flag.Int("aa", 0, "run two alternating sets of this many invocations of every workload and compare their medians")
	)
	flag.Parse()
	if *scale != "full" && *scale != "tiny" {
		fatal(fmt.Errorf("-scale %q: want full or tiny", *scale))
	}
	bin, err := findCodsnode(*codsnode)
	if err != nil {
		fatal(err)
	}

	// Every exit path kills the children: a signal, the watchdog, a panic
	// on this goroutine, an error. Children also carry a parent-death
	// signal for the paths no handler sees.
	installSignalHandler()
	defer killOnPanic()

	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Tiny: *scale == "tiny", Codsnode: bin, OutDir: *outDir}
	switch {
	case *workload != "":
		watchdog := startWatchdog(*workload, runTimeout)
		res, err := runWorkload(cfg)
		watchdog.Stop()
		if err != nil {
			fatal(err)
		}
		printResult(res)
		if *resultTo != "" {
			if err := writeJSON(*resultTo, res); err != nil {
				fatal(err)
			}
		}
		if !res.Correct {
			os.Exit(1)
		}
	case *aa > 0:
		if err := runAA(cfg, *aa); err != nil {
			fatal(err)
		}
	default:
		if err := runAll(cfg, *label); err != nil {
			fatal(err)
		}
	}
}

// installSignalHandler kills the children and exits on SIGINT or SIGTERM.
func installSignalHandler() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		killTracked()
		fmt.Fprintf(os.Stderr, "bench: %v, children killed\n", s)
		os.Exit(130)
	}()
}

// killOnPanic, deferred on the main goroutine, kills the children before a
// panic takes the process down.
func killOnPanic() {
	if r := recover(); r != nil {
		killTracked()
		panic(r)
	}
}

// startWatchdog kills the children and exits non-zero when a run of what
// takes longer than d.
func startWatchdog(what string, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		killTracked()
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v, children killed\n", what, d)
		os.Exit(3)
	})
}

func fatal(err error) {
	killTracked()
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// findCodsnode locates the codsnode binary: the flag, then next to this
// executable, where run.sh builds both.
func findCodsnode(path string) (string, error) {
	if path != "" {
		return path, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "codsnode")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	return "", fmt.Errorf("no codsnode binary: run through bench/run.sh, or build cmd/codsnode and pass -codsnode")
}

// printResult prints a run's metrics by name, with unit and sample count,
// then the one-line JSON object the harness reads.
func printResult(res *result) {
	fmt.Printf("workload %s seed %d trace %v: %s\n", res.Workload, res.Seed, res.Trace, res.Plan)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-28s %14.6g %-6s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if n := res.Samples[d.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if d.Name == "coupled_gbps" {
			line += " (loopback, cache-resident)"
		}
		if raw, ok := res.Raw[d.Name]; ok && !res.Trace {
			line += fmt.Sprintf(" [wall clock %.6g]", raw)
		}
		fmt.Println(line)
	}
	fmt.Printf("  host-speed index %.3f; segment steps/s:", res.Raw["host_index"])
	for _, r := range res.SegRates {
		fmt.Printf(" %.4g", r)
	}
	fmt.Println()
	for _, p := range res.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	last, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

// env describes where a result was measured.
type env struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Note       string `json:"note"`
}

func currentEnv() env {
	e := env{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown",
		Note: "loopback is not a link; arrays are cache-resident; GOGC, GOMAXPROCS, affinity and pull workers are left at their defaults"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	return e
}

// spawnRun runs one workload in a fresh process of this executable — its
// heap, its GC pacing and its span cache are its own — and reads the result
// it writes. quiet drops the child's own report.
func spawnRun(cfg runConfig, quiet bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceFlag, scale := "0", "full"
	if cfg.Trace {
		traceFlag = "1"
	}
	if cfg.Tiny {
		scale = "tiny"
	}
	resultPath := filepath.Join(cfg.OutDir, fmt.Sprintf("result-%s-trace%s.json", cfg.Workload, traceFlag))
	cmd := exec.Command(exe, "-workload", cfg.Workload, "-seed", fmt.Sprint(cfg.Seed),
		"-seconds", fmt.Sprint(cfg.Seconds), "-trace", traceFlag, "-scale", scale,
		"-codsnode", cfg.Codsnode, "-out", cfg.OutDir, "-result", resultPath)
	cmd.Stderr = os.Stderr
	if !quiet {
		cmd.Stdout = os.Stdout
	}
	if err := startTracked(cmd); err != nil {
		return nil, err
	}
	runErr := waitTracked(cmd)
	data, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, fmt.Errorf("%s: %v, and no result: %v", cfg.Workload, runErr, err)
	}
	_ = os.Remove(resultPath) // a stale file must never pass for the next run's result
	res := new(result)
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %v: %s", cfg.Workload, runErr, strings.Join(res.Problems, "; "))
	}
	return res, nil
}

// fullOutput is what one invocation of every workload writes to
// BENCH_<label>.json: the first point, and every later one, of the per-PR
// trajectory.
type fullOutput struct {
	Env       env                `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads []workloadOutput   `json:"workloads"`
	Declared  map[string]any     `json:"declared"`
	Elapsed   map[string]float64 `json:"elapsed_s"`
}

type workloadOutput struct {
	Name     string              `json:"name"`
	Why      string              `json:"why"`
	EndToEnd map[string]value    `json:"end_to_end"`
	Raw      map[string]float64  `json:"raw_wall_clock"`
	PerLayer map[string]value    `json:"per_layer"`
	Counts   map[string]float64  `json:"counts"`
	Spans    map[string]spanStat `json:"spans"`
	Steps    int                 `json:"steps"`
	Failed   int                 `json:"failed"`
}

// runAll runs every workload untraced, then traced, each in a fresh
// process, prints the metrics and writes BENCH_<label>.json.
func runAll(cfg runConfig, label string) error {
	out := fullOutput{Env: currentEnv(), Seed: cfg.Seed, Seconds: cfg.Seconds, Elapsed: map[string]float64{},
		Declared: map[string]any{"end_to_end": endToEnd, "per_layer": perLayer}}
	ok := true
	for _, def := range workloads {
		cfg.Workload = def.Name
		wo := workloadOutput{Name: def.Name, Why: def.Why}
		for _, traced := range []bool{false, true} {
			cfg.Trace = traced
			t0 := time.Now()
			res, err := spawnRun(cfg, false)
			if err != nil {
				return err
			}
			out.Elapsed[fmt.Sprintf("%s/trace%v", def.Name, traced)] = time.Since(t0).Seconds()
			ok = ok && res.Correct
			if traced {
				wo.PerLayer, wo.Spans = res.Metrics, res.Spans
			} else {
				wo.EndToEnd, wo.Raw, wo.Counts = res.Metrics, res.Raw, res.Counts
				wo.Steps, wo.Failed = res.Attempted, res.Failed
			}
		}
		out.Workloads = append(out.Workloads, wo)
	}
	if err := writeJSON(filepath.Join(cfg.OutDir, "BENCH_"+label+".json"), out); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("a workload failed verification or an invariant")
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
