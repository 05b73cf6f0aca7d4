package cods_test

// Streaming-chaos end-to-end test (ISSUE 9 satellite): a multi-process
// TCP run couples a stream producer to a stream consumer, and one
// producer-owning codsnode is hard-killed mid-stream. The driver must
// learn of the crash from the child's exit, the replacement must come up on
// a fresh port (holding no stream state: the driver's stream engine is the
// only authority), the reconcile must re-stage the dead process's staged
// blocks — including a version whose expose was
// acknowledged by the doomed process moments before the kill — and
// under the backpressure policy every consumer must still observe a
// gap-free version sequence, verified cell by cell. The observability
// report must reconcile delta-0, stream counters included.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestStreamingChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process chaos test in -short mode")
	}
	const rounds = 8
	bin := buildTCPBinaries(t)
	dir := t.TempDir()
	dag := filepath.Join(dir, "wf.dag")
	if err := os.WriteFile(dag, []byte("MACHINE 2 3\nDOMAIN 8 8\nAPP_ID 1\nAPP_ID 2\n"+
		"DECOMP 1 blocked 2 2\nDECOMP 2 blocked 2 1\nBUNDLE 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reportPath := filepath.Join(dir, "report.json")
	// Producer tasks land on cores 0-3, consumers on 4-5, so node 1
	// (cores 3-5) owns one producer piece and one consumer; -chaos-after 4
	// kills it once the first version is fully staged and the next is in
	// flight. A producer's versions survive the kill through the staged
	// table's restage and the put's own retry. The retry budget must outlive the
	// replacement spawn plus the bounce of a read that waited out the
	// elastic driver's 2 s read patience.
	text := runCodsrun(t, bin,
		"-backend", "tcp",
		"-dag", dag,
		"-policy", "round-robin",
		"-stream", "-stream-rounds", fmt.Sprint(rounds),
		"-verify",
		"-elastic",
		"-chaos-kill", "1", "-chaos-after", "4",
		"-retry", "attempts=100,base=5ms,cap=50ms,deadline=60s",
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
	// Both consumer tasks must have followed the full stream gap-free:
	// backpressure never drops, and the restage puts a lost version back
	// before its reader can give up.
	sum := regexp.MustCompile(`stream consumer 2\.(\d+) observed (\d+) versions \[(\d+)\.\.(\d+)\] gaps (\d+)`)
	matches := sum.FindAllStringSubmatch(text, -1)
	if len(matches) != 2 {
		t.Fatalf("want 2 consumer summaries, got %d:\n%s", len(matches), text)
	}
	for _, m := range matches {
		if m[2] != fmt.Sprint(rounds) || m[3] != "0" || m[4] != fmt.Sprint(rounds-1) || m[5] != "0" {
			t.Errorf("consumer 2.%s: observed %s versions [%s..%s] gaps %s, want %d versions [0..%d] gaps 0",
				m[1], m[2], m[3], m[4], m[5], rounds, rounds-1)
		}
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
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", reportPath, err)
	}
	if !rep.Reconciled || len(rep.Reconciliation) == 0 {
		t.Fatalf("report not reconciled: %+v", rep)
	}
	for _, c := range rep.Reconciliation {
		if !c.Match {
			t.Errorf("check %s: registry %d != external %d", c.Name, c.Registry, c.External)
		}
	}
	counters := rep.Metrics.Counters
	// 4 producer indices x 8 rounds published; 2 consumers x 8 versions
	// acknowledged; backpressure never drops.
	if got := counters["cods.stream.published"]; got != 4*rounds {
		t.Errorf("cods.stream.published = %d, want %d", got, 4*rounds)
	}
	if got := counters["cods.stream.consumed"]; got != 2*rounds {
		t.Errorf("cods.stream.consumed = %d, want %d", got, 2*rounds)
	}
	if got := counters["cods.stream.dropped"]; got != 0 {
		t.Errorf("cods.stream.dropped = %d, want 0", got)
	}
	// One crash, one replacement: one exit detected, and the dead
	// process's staged blocks re-staged.
	if got := counters["membership.exits"]; got != 1 {
		t.Errorf("membership.exits = %d, want 1", got)
	}
	if got := counters["membership.migrated_blocks"]; got <= 0 {
		t.Errorf("membership.migrated_blocks = %d, want > 0", got)
	}
}
