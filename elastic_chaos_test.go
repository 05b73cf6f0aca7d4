package cods_test

// Topology-chaos end-to-end test of the elastic membership layer: a
// multi-process TCP run where one codsnode is hard-killed after staging,
// while the consumer's pulls are in flight. The driver must learn of the
// crash from the child's exit, the elastic loop must spawn a replacement on
// a fresh port and re-stage the dead node's blocks from the staged table,
// and every pull must still verify cell-by-cell (codsrun -verify fails
// the run on the first wrong cell). The observability report must
// reconcile delta-0, including the membership counters against the
// reconciler's accounting.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestElasticChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process chaos test in -short mode")
	}
	bin := buildTCPBinaries(t)
	dir := t.TempDir()
	dag := filepath.Join(dir, "wf.dag")
	if err := os.WriteFile(dag, []byte("MACHINE 2 2\nHALO 1\nDOMAIN 8 8\nAPP_ID 1\nAPP_ID 2\nDECOMP 1 blocked 2 2\nDECOMP 2 blocked 2 1\nPARENT_APPID 1 CHILD_APPID 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reportPath := filepath.Join(dir, "report.json")
	// The producer stages 4 blocks (blocked 2x2), so -chaos-after 4 kills
	// node 1 exactly when staging is done and consumption begins. The
	// retry budget must outlive the replacement spawn and the reconcile:
	// the operations ride out the loss, and no task is ever re-run.
	text := runCodsrun(t, bin,
		"-backend", "tcp",
		"-dag", dag,
		"-policy", "round-robin",
		"-elastic",
		"-chaos-kill", "1", "-chaos-after", "4",
		"-retry", "attempts=100,base=5ms,cap=50ms,deadline=60s",
		"-verify",
		"-report", reportPath)
	for _, want := range []string{
		"elastic membership: watching 2 codsnode processes",
		"chaos: killing codsnode 1",
		"membership: codsnode 1 exited (signal: killed)",
		"membership: reconciled 1 node(s)",
		"workflow complete:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	// The serving announcement must appear twice for node 1: the initial
	// spawn and the replacement.
	if n := strings.Count(text, "codsnode 1 serving at "); n != 2 {
		t.Fatalf("want initial + replacement spawns of codsnode 1, saw %d:\n%s", n, text)
	}

	data, err := os.ReadFile(reportPath)
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
		t.Fatalf("%s: %v", reportPath, err)
	}
	if !rep.Reconciled || len(rep.Reconciliation) == 0 {
		t.Fatalf("report not reconciled: %+v", rep)
	}
	checks := map[string]int64{}
	for _, c := range rep.Reconciliation {
		if !c.Match {
			t.Errorf("check %s: registry %d != external %d", c.Name, c.Registry, c.External)
		}
		checks[c.Name] = c.External
	}
	// One crash, one replacement: one exit detected and one node
	// reconciled, and a non-empty migration — half the producer's blocks
	// lived on node 1 under round-robin placement.
	if got, ok := checks["membership.exits"]; !ok || got != 1 {
		t.Errorf("membership.exits = %d (checked: %v), want 1", got, ok)
	}
	if got := checks["membership.migrated_blocks"]; got <= 0 {
		t.Errorf("membership.migrated_blocks = %d, want > 0", got)
	}
	if got := checks["membership.migrated_bytes"]; got <= 0 {
		t.Errorf("membership.migrated_bytes = %d, want > 0", got)
	}
	if _, ok := checks["membership.reinserted_records"]; !ok {
		t.Error("report missing the membership.reinserted_records check")
	}
}
