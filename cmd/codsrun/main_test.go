package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/cluster"
	icods "github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/membership"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport"
)

func writeDAG(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "wf.dag")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// opts builds the options one test invocation needs, starting from the
// flag defaults that matter.
func opts(dag, policy string, iterations int, verify, verbose bool) options {
	return options{
		dagPath: dag, policyName: policy, iterations: iterations,
		verify: verify, verbose: verbose,
		chaosKill: -1, streamRounds: 8,
	}
}

func TestRunConcurrentWorkflowFile(t *testing.T) {
	dag := writeDAG(t, "MACHINE 4 4\nHALO 1\nDOMAIN 16 16 16\nAPP_ID 1\nAPP_ID 2\n"+
		"DECOMP 1 blocked 2 2 2\nDECOMP 2 blocked 2 2 1\nBUNDLE 1 2\n")
	o := opts(dag, "data-centric", 1, true, true)
	o.flowsPath = filepath.Join(t.TempDir(), "flows.jsonl")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(o.flowsPath); err != nil || fi.Size() == 0 {
		t.Fatalf("flow trace not written: %v", err)
	}
}

func TestRunSequentialWorkflowFile(t *testing.T) {
	dag := writeDAG(t, "MACHINE 4 4\nHALO 1\nDOMAIN 16 16\nAPP_ID 1\nAPP_ID 2\nDECOMP 1 blocked 4 2\nDECOMP 2 cyclic 2 2\n"+
		"PARENT_APPID 1 CHILD_APPID 2\n")
	o := opts(dag, "round-robin", 1, true, false)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunReportReconciles: -report must produce a report whose transport
// counters agree exactly with the fabric's per-medium accounting, and
// -spans must emit a readable parent-linked trace.
func TestRunReportReconciles(t *testing.T) {
	obs.Default.Reset()
	dag := writeDAG(t, "MACHINE 2 4\nHALO 1\nDOMAIN 16 16 16\nAPP_ID 1\nAPP_ID 2\n"+
		"DECOMP 1 blocked 2 2 1\nDECOMP 2 blocked 2 1 1\nBUNDLE 1 2\n")
	dir := t.TempDir()
	o := opts(dag, "data-centric", 1, true, false)
	o.reportPath = filepath.Join(dir, "report.json")
	o.spansPath = filepath.Join(dir, "spans.jsonl")
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	r, err := obs.ReadReport(o.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reconciled {
		t.Fatalf("report not reconciled: %+v", r.Checks)
	}
	if len(r.Checks) != 5 {
		t.Fatalf("got %d reconciliation checks, want 5", len(r.Checks))
	}
	var moved int64
	for _, c := range r.Checks {
		if !c.Match {
			t.Errorf("check %s: registry %d != external %d", c.Name, c.Registry, c.External)
		}
		moved += c.External
	}
	if moved == 0 {
		t.Fatal("report shows no traffic at all")
	}

	sf, err := os.Open(o.spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	events, err := obs.ReadSpans(sf)
	if err != nil {
		t.Fatal(err)
	}
	var roots, pulls int
	for _, ev := range events {
		if ev.Ev == "b" && ev.Parent == 0 {
			roots++
		}
		if ev.Ev == "b" && len(ev.Name) > 5 && ev.Name[:5] == "pull:" {
			pulls++
		}
	}
	if roots != 1 {
		t.Fatalf("span trace has %d roots, want 1", roots)
	}
	if pulls == 0 {
		t.Fatal("span trace has no pull spans")
	}
}

// TestRunErrors: every refusal names what is missing or wrong — the DAG
// file is the one declaration of the workload, so a file without a
// MACHINE or DOMAIN line or without an application's DECOMP line is
// refused, not completed from a default, and a number out of its flag's
// range is refused, not rewritten into one in range. (A negative HALO is
// the parser's refusal.)
func TestRunErrors(t *testing.T) {
	dag := writeDAG(t, "MACHINE 2 2\nDOMAIN 8 8\nAPP_ID 1\nDECOMP 1 blocked 2 2\n")
	bad := func(mutate func(*options)) error {
		o := opts(dag, "data-centric", 1, false, false)
		mutate(&o)
		return run(o)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"missing dag", bad(func(o *options) { o.dagPath = "" }), "-dag"},
		{"bad policy", bad(func(o *options) { o.policyName = "fancy" }), "policy"},
		{"no MACHINE", bad(func(o *options) { o.dagPath = writeDAG(t, "DOMAIN 8 8\nAPP_ID 1\nDECOMP 1 blocked 2 2\n") }), "no MACHINE"},
		{"no DOMAIN", bad(func(o *options) { o.dagPath = writeDAG(t, "MACHINE 2 2\nAPP_ID 1\nDECOMP 1 blocked 2 2\n") }), "no DOMAIN"},
		{"app without DECOMP", bad(func(o *options) {
			o.dagPath = writeDAG(t, "MACHINE 2 2\nDOMAIN 8 8\nAPP_ID 1\nAPP_ID 2\nDECOMP 1 blocked 2 2\nPARENT_APPID 1 CHILD_APPID 2\n")
		}), "application 2 has no DECOMP"},
		{"zero iterations", bad(func(o *options) { o.iterations = 0 }), "-iterations"},
		{"zero stream rounds", bad(func(o *options) { o.streamRounds = 0 }), "-stream-rounds"},
		{"negative chaos-after", bad(func(o *options) { o.chaosAfter = -3 }), "-chaos-after"},
		{"chaos-kill below -1", bad(func(o *options) { o.chaosKill = -5 }), "-chaos-kill"},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: %v does not name %q", c.name, c.err, c.want)
		}
	}
}

// TestRestageIsIdempotent: the reconcile re-stages a block that may be
// exposed already — the producer's own retry can win the race — so
// membership.Reconcile must succeed over an existing exposure and leave
// exactly one block: one location record, the same cells.
func TestRestageIsIdempotent(t *testing.T) {
	m, err := cluster.NewMachine(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	space, err := icods.NewSpace(transport.NewFabric(m), geometry.BoxFromSize([]int{8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	const app, owner = 1, cluster.CoreID(3)
	region := geometry.NewBBox(geometry.Point{0, 4}, geometry.Point{4, 8})
	data := make([]float64, region.Volume())
	for i := range data {
		data[i] = float64(i) + 0.5
	}
	b := icods.StagedBlock{Var: "data.1", Version: 2, Region: region, Owner: owner, App: app, Data: data}
	space.SetKeepPayloads(true)
	if err := space.HandleAt(owner, app, "stage").PutSequential(b.Var, b.Version, b.Region, b.Data); err != nil {
		t.Fatal(err)
	}
	records := space.Lookup().TableSize(0) + space.Lookup().TableSize(1)
	for i := 1; i <= 2; i++ {
		res, err := membership.Reconcile(space, []cluster.NodeID{m.NodeOf(owner)})
		if err != nil || res.RestagedCount != 1 {
			t.Fatalf("reconcile %d over an exposed block: %d restaged, %v", i, res.RestagedCount, err)
		}
	}
	got, err := space.HandleAt(0, app, "get").GetSequential(b.Var, b.Version, region)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, data) {
		t.Fatalf("restaged block reads back %v, want %v", got, data)
	}
	entries, err := space.Lookup().ClientAt(0).Query("get", app, b.Var, b.Version, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Owner != owner {
		t.Fatalf("lookup answers %+v, want the one record at core %d", entries, owner)
	}
	if now := space.Lookup().TableSize(0) + space.Lookup().TableSize(1); now != records {
		t.Fatalf("%d location records after two restages, %d after the put", now, records)
	}
}

// TestParseRetrySpec: -retry comes from outside the program, so a value
// the policy cannot honour is refused by name instead of silently running
// a different policy (a negative deadline as none), and so is a key the
// policy does not have (the growth factor and jitter are fixed).
func TestParseRetrySpec(t *testing.T) {
	def := cods.DefaultRetryPolicy()
	with := func(f func(*cods.RetryPolicy)) cods.RetryPolicy {
		p := def
		f(&p)
		return p
	}
	for _, tc := range []struct {
		spec string
		want cods.RetryPolicy
	}{
		{"6", with(func(p *cods.RetryPolicy) { p.MaxAttempts = 6 })},
		{"attempts=3, base=1ms,cap=10ms,deadline=2s", cods.RetryPolicy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
			Deadline: 2 * time.Second,
		}},
		{"base=0,cap=0,deadline=0", with(func(p *cods.RetryPolicy) {
			p.BaseDelay, p.MaxDelay, p.Deadline = 0, 0, 0
		})},
	} {
		got, err := parseRetrySpec(tc.spec)
		if err != nil || got != tc.want {
			t.Errorf("parseRetrySpec(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
	for _, tc := range []struct{ spec, key string }{
		{"0", "attempts"},
		{"attempts=0", "attempts"},
		{"base=-1ms", "base"},
		{"cap=-1s", "cap"},
		{"deadline=-5s", "deadline"},
		{"jitter=0.2", "jitter"},
		{"multiplier=2", "multiplier"},
		{"base=soon", "base"},
		{"base", "base"},
		{"backoff=1ms", "backoff"},
	} {
		if pol, err := parseRetrySpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("parseRetrySpec(%q) = %+v, %v; want an error naming %s", tc.spec, pol, err, tc.key)
		}
	}
}
