package cods_test

// End-to-end smoke test of the multi-process TCP backend: codsrun with
// -backend=tcp launches one codsnode child per node and runs a workflow
// whose every cross-node operation crosses real sockets. The run must
// verify cell-by-cell (codsrun -verify), report the same traffic totals
// as the single-process backend, and produce a reconciled observability
// report.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/insitu/cods/internal/obs"
)

// buildTCPBinaries compiles codsrun and codsnode into one directory so the
// driver finds the child next to itself.
func buildTCPBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, pkg := range []string{"./cmd/codsrun", "./cmd/codsnode"} {
		out, err := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return dir
}

// codsrunDeadline bounds one codsrun child of a test. The slowest of them
// (the chaos runs under -race) finish in seconds; go test's own package
// timeout is ten minutes and reports no transcript.
const codsrunDeadline = 2 * time.Minute

// runCodsrun runs the built codsrun with args and returns its transcript
// (stdout and stderr), failing the test with it when the run exits
// non-zero or outlives codsrunDeadline. A run past the deadline is killed,
// and on Linux its codsnode children die with it
// (TestTCPKilledDriverTakesChildren); WaitDelay closes the output pipe a
// second later, so where there is no parent-death signal an orphaned
// codsnode, which still holds the pipe's write end, cannot keep the test
// waiting for EOF.
func runCodsrun(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), codsrunDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "codsrun"), args...)
	cmd.WaitDelay = time.Second
	out, err := cmd.CombinedOutput()
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("still running after %s, killed: %w", codsrunDeadline, err)
	}
	if err != nil {
		t.Fatalf("codsrun %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// trafficLines extracts the deterministic data-volume lines of a codsrun
// transcript (coupled and intra-app; control volumes are deterministic
// too in a fault-free run, so they are included).
func trafficLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "coupled data:") ||
			strings.HasPrefix(line, "intra-app data:") ||
			strings.HasPrefix(line, "control:") ||
			strings.HasPrefix(line, "workflow complete:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestTCPDistributedTrace runs a two-node workflow over the TCP backend
// with span tracing and asserts the merged trace is one cross-process
// tree: every remote handler span the codsnode children emitted carries a
// node label and parents under a driver-side span — no orphans, no
// unlabelled remote spans.
func TestTCPDistributedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process smoke test in -short mode")
	}
	bin := buildTCPBinaries(t)
	dir := t.TempDir()
	dag := filepath.Join(dir, "wf.dag")
	if err := os.WriteFile(dag, []byte("DOMAIN 8 8\nAPP_ID 1\nAPP_ID 2\nDECOMP 1 blocked 2 2\nDECOMP 2 blocked 2 1\nPARENT_APPID 1 CHILD_APPID 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spansPath := filepath.Join(dir, "spans.jsonl")
	runCodsrun(t, bin,
		"-backend", "tcp",
		"-nodes", "2", "-cores", "2",
		"-dag", dag,
		"-policy", "round-robin",
		"-spans", spansPath)

	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	driver := map[obs.SpanID]string{} // driver-side span id -> name
	remote := 0
	for _, ev := range evs {
		if ev.Ev != "b" {
			continue
		}
		if !strings.HasPrefix(ev.Name, "remote:") {
			if ev.Node != "" {
				t.Fatalf("driver span carries a node label: %+v", ev)
			}
			driver[ev.ID] = ev.Name
			continue
		}
		remote++
		if ev.Node == "" {
			t.Errorf("remote span without node label: %+v", ev)
		}
		parent, ok := driver[ev.Parent]
		if !ok {
			t.Errorf("remote span %q parents under %d, not a driver span", ev.Name, ev.Parent)
			continue
		}
		// Data-plane spans hang off the pull that caused them; control
		// spans (DHT lookups) off the task or pull issuing the query.
		if !strings.HasPrefix(parent, "pull:") && !strings.HasPrefix(parent, "task:") {
			t.Errorf("remote span %q parents under %q, want a pull or task span", ev.Name, parent)
		}
	}
	if remote == 0 {
		t.Fatal("two-node TCP run captured no remote handler spans")
	}

	// One tree: every span's parent was seen somewhere in the merged
	// file, and the workflow span is the only root.
	seen := map[obs.SpanID]bool{}
	for _, ev := range evs {
		if ev.Ev != "e" {
			seen[ev.ID] = true
		}
	}
	var roots []string
	for _, ev := range evs {
		switch {
		case ev.Ev == "e":
		case ev.Parent == 0:
			roots = append(roots, ev.Name)
		case !seen[ev.Parent]:
			t.Errorf("span %q (%d) parents under %d, which the trace never opened", ev.Name, ev.ID, ev.Parent)
		}
	}
	if len(roots) != 1 || roots[0] != "workflow:round-robin" {
		t.Fatalf("trace roots = %q, want only workflow:round-robin", roots)
	}
}

// TestTCPKilledDriverTakesChildren kills a codsrun driver mid-run — the
// way runCodsrun's deadline or a user's kill -9 does — and asserts that
// the codsnode children of that run, identified by the listen addresses
// the driver announced, stop serving: a killed driver leaves no orphans.
func TestTCPKilledDriverTakesChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process smoke test in -short mode")
	}
	if runtime.GOOS != "linux" {
		t.Skip("codsnode children die with their driver only where there is a parent-death signal")
	}
	bin := buildTCPBinaries(t)
	dag := filepath.Join(t.TempDir(), "wf.dag")
	if err := os.WriteFile(dag, []byte("DOMAIN 64 64\nAPP_ID 1\nAPP_ID 2\n"+
		"DECOMP 1 blocked 2 1\nDECOMP 2 blocked 2 1\nBUNDLE 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Far more coupling iterations than finish before the kill below.
	cmd := exec.Command(filepath.Join(bin, "codsrun"),
		"-backend", "tcp", "-nodes", "2", "-cores", "2",
		"-dag", dag, "-iterations", "10000000")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for sc := bufio.NewScanner(stdout); len(addrs) < 2 && sc.Scan(); {
		if _, addr, ok := strings.Cut(sc.Text(), " serving at "); ok {
			addrs = append(addrs, addr)
		}
	}
	for _, addr := range addrs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("codsnode at %s not serving before the kill: %v", addr, err)
			continue
		}
		c.Close()
	}
	cmd.Process.Kill()
	cmd.Wait()
	if len(addrs) != 2 {
		t.Fatalf("driver announced %d codsnode addresses before exiting, want 2", len(addrs))
	}
	for _, addr := range addrs {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				break
			}
			c.Close()
			if time.Now().After(deadline) {
				t.Errorf("codsnode at %s still serving 10 s after its driver was killed", addr)
				break
			}
		}
	}
}

func TestTCPBackendSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process smoke test in -short mode")
	}
	bin := buildTCPBinaries(t)
	dag := filepath.Join(t.TempDir(), "wf.dag")
	if err := os.WriteFile(dag, []byte("DOMAIN 8 8\nAPP_ID 1\nAPP_ID 2\nDECOMP 1 blocked 2 2\nDECOMP 2 blocked 2 1\nPARENT_APPID 1 CHILD_APPID 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(backend, reportPath string) string {
		t.Helper()
		return runCodsrun(t, bin,
			"-backend", backend,
			"-nodes", "2", "-cores", "2",
			"-dag", dag,
			"-policy", "round-robin", "-verify",
			"-report", reportPath)
	}

	dir := t.TempDir()
	inprocReport := filepath.Join(dir, "inproc.json")
	tcpReport := filepath.Join(dir, "tcp.json")
	inprocOut := run("inproc", inprocReport)
	tcpOut := run("tcp", tcpReport)

	if !strings.Contains(tcpOut, "codsnode 0 serving at") || !strings.Contains(tcpOut, "codsnode 1 serving at") {
		t.Fatalf("tcp run did not launch one codsnode per node:\n%s", tcpOut)
	}
	// -verify compares every retrieved cell against the synthetic fill;
	// equal traffic lines on top of that pin the metered volumes.
	if got, want := trafficLines(tcpOut), trafficLines(inprocOut); got != want {
		t.Fatalf("traffic differs across backends:\ninproc:\n%s\ntcp:\n%s", want, got)
	}

	for _, path := range []string{inprocReport, tcpReport} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Reconciled     bool `json:"reconciled"`
			Reconciliation []struct {
				Name     string `json:"name"`
				Registry int64  `json:"registry"`
				External int64  `json:"external"`
				Match    bool   `json:"match"`
			} `json:"reconciliation"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !rep.Reconciled || len(rep.Reconciliation) == 0 {
			t.Fatalf("%s: report not reconciled: %+v", path, rep)
		}
		for _, c := range rep.Reconciliation {
			if !c.Match {
				t.Errorf("%s: check %s: registry %d != external %d", path, c.Name, c.Registry, c.External)
			}
		}
	}
}
