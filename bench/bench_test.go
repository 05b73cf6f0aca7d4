package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// testCodsnode is the codsnode binary TestMain builds once.
var testCodsnode string

func TestMain(m *testing.M) {
	// A re-executed copy of this test binary plays the benchmark process
	// that is made to fail (see TestNoCodsnodeSurvivesFailure).
	if mode := os.Getenv("BENCH_TEST_CRASH"); mode != "" {
		crashForTest(mode, os.Getenv("BENCH_TEST_CODSNODE"))
		return
	}
	dir, err := os.MkdirTemp("", "codsbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testCodsnode = filepath.Join(dir, "codsnode")
	if out, err := exec.Command("go", "build", "-o", testCodsnode, "github.com/insitu/cods/cmd/codsnode").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building codsnode: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := runWorkload(runConfig{Workload: workload, Seed: seed, Seconds: 1, Trace: trace,
		Tiny: true, Codsnode: testCodsnode, OutDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (seed %d, trace %v): %v", workload, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (seed %d, trace %v): correct=%v attempted=%d failed=%d problems=%v",
			workload, seed, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	return res
}

// checkMetrics asserts that a result carries exactly the declared metrics,
// finite and with the declared units.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not printed", res.Workload, d.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, d.Name, v.Value)
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: %s printed in %q, declared %q", res.Workload, d.Name, v.Unit, d.Unit)
		}
	}
}

// countMetrics are the per-layer metrics that are exact counts: they must
// repeat exactly across runs with the same seed.
var countMetrics = []string{"tcpnet.wire_bytes_per_step", "tcpnet.frames_per_step", "tcpnet.wire_amplification",
	"sfc.spans_per_query", "dht.entries_per_query", "cluster.flows_per_step", "runtime.tasks_per_step"}

// TestSmoke runs all four workloads at the tiny scale, untraced and traced,
// twice with the same seed. A correct result already means every get
// verified and every workload's invariant held: no DHT query in
// seq-bulk-tcp's timed phase, only schedule misses in seq-lookup-tcp's, no
// more than MaxLag retained versions in stream-lockstep-tcp, no socket
// opened by workflow-inproc.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			a, b := tinyRun(t, def.Name, 1, false), tinyRun(t, def.Name, 1, false)
			checkMetrics(t, a, endToEnd)
			for _, d := range endToEnd {
				// A tiny run is shorter than the 10 ms tick CPU time is counted in.
				if a.Metrics[d.Name].Value == 0 && d.Name != "cpu_ms_per_step" {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			if got := a.Metrics["success_ratio"].Value; got != 1 {
				t.Errorf("success_ratio = %v", got)
			}
			if a.Metrics["insitu_fraction"] != b.Metrics["insitu_fraction"] {
				t.Errorf("insitu_fraction differs across two runs with one seed: %v, %v",
					a.Metrics["insitu_fraction"], b.Metrics["insitu_fraction"])
			}
			if !reflect.DeepEqual(a.Counts, b.Counts) {
				t.Errorf("exact counts differ across two runs with one seed:\n%v\n%v", a.Counts, b.Counts)
			}
			ta, tb := tinyRun(t, def.Name, 1, true), tinyRun(t, def.Name, 1, true)
			checkMetrics(t, ta, perLayer)
			for _, name := range countMetrics {
				if ta.Metrics[name] != tb.Metrics[name] {
					t.Errorf("%s differs across two traced runs with one seed: %v, %v", name, ta.Metrics[name], tb.Metrics[name])
				}
			}
			positive := []string{"trace.overhead_ratio", "host.speed_index"}
			if strings.HasSuffix(def.Name, "-tcp") {
				positive = append(positive, "trace.layers_sum_ratio", "tcpnet.wire_bytes_per_step", "cods.get_miss_us")
			} else if got := ta.Metrics["tcpnet.wire_bytes_per_step"].Value; got != 0 {
				t.Errorf("workflow-inproc put %v bytes per step on a wire", got)
			}
			for _, name := range positive {
				if got := ta.Metrics[name].Value; got <= 0 {
					t.Errorf("%s = %v", name, got)
				}
			}
		})
	}
}

// TestSeedChangesLookupRegions: the seed feeds the workload generator.
func TestSeedChangesLookupRegions(t *testing.T) {
	a, b := newSeqLookup(true), newSeqLookup(true)
	a.seed, b.seed = 1, 2
	ra, rb := a.regions(0), b.regions(0)
	same := 0
	for i := range ra {
		if ra[i].region.Equal(rb[i].region) {
			same++
		}
	}
	if same == len(ra) {
		t.Fatalf("seeds 1 and 2 draw the same %d regions", same)
	}
	c := newSeqLookup(true)
	c.seed = 1
	for i, g := range c.regions(0) {
		if !g.region.Equal(ra[i].region) {
			t.Fatalf("seed 1 drew %v then %v for get %d", ra[i].region, g.region, i)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in metrics.go in
// step, and both inside the harness's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the harness's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) || len(workloads) != 4 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared, want 4", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), metrics.go %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: rationale must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared", len(f.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range f.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("%s declares no bound", m.Name)
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v (bound %v), metrics.go %+v", i, m, *m.Bound, d)
		}
		// 0.25 is the largest bound the harness accepts, not a target.
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared", len(f.PerLayer), len(perLayer))
	}
	known := map[string]bool{"none": true}
	for _, w := range workloads {
		for _, d := range endToEnd {
			known[w.Name+"/"+d.Name], known["*/"+d.Name] = true, true
		}
	}
	for i, m := range f.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if d.Layer == "" || !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s: layer %q does not prefix the name", d.Name, d.Layer)
		}
		if !known[d.Moves] {
			t.Errorf("%s: moves %q, which is no workload/metric of this benchmark", d.Name, d.Moves)
		}
	}
}

// crashForTest is the body of the re-executed test binary: it brings a
// cluster up and then fails the way the named mode says, through the same
// exit paths main uses.
func crashForTest(mode, codsnode string) {
	installSignalHandler()
	defer killOnPanic()
	w := newSeqBulk(true)
	if err := w.setup(codsnode, 1); err != nil {
		fatal(err)
	}
	switch mode {
	case "verification":
		fatal(fmt.Errorf("injected verification failure"))
	case "panic":
		panic("injected panic")
	case "sigterm":
		_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {}
	case "timeout":
		startWatchdog("injected", time.Millisecond)
		select {}
	}
}

// codsnodesRunning counts the live processes whose executable is bin.
func codsnodesRunning(bin string) int {
	procs, _ := filepath.Glob("/proc/[0-9]*")
	n := 0
	for _, p := range procs {
		if exe, err := os.Readlink(p + "/exe"); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			n++
		}
	}
	return n
}

// TestNoCodsnodeSurvivesFailure makes a benchmark process fail on each of
// its exit paths after it has started its children, and asserts that none
// of them outlives it.
func TestNoCodsnodeSurvivesFailure(t *testing.T) {
	for _, mode := range []string{"verification", "panic", "sigterm", "timeout"} {
		t.Run(mode, func(t *testing.T) {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "BENCH_TEST_CRASH="+mode, "BENCH_TEST_CODSNODE="+testCodsnode)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("the failing process exited 0:\n%s", out)
			}
			deadline := time.Now().Add(3 * time.Second)
			for codsnodesRunning(testCodsnode) > 0 && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
			if n := codsnodesRunning(testCodsnode); n > 0 {
				t.Fatalf("%d codsnode processes survive a %s failure:\n%s", n, mode, out)
			}
		})
	}
}
