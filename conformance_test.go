package cods_test

// Model-based conformance tests (DESIGN §5e): randomized scenarios from
// internal/conformance run through the real pipeline and its reference
// model, with deterministic shrinking on failure.

import (
	"strings"
	"testing"
	"time"

	"github.com/insitu/cods/internal/conformance"
)

// conformanceSeeds returns how many generated scenarios a sweep runs.
func conformanceSeeds(t *testing.T, full int) uint64 {
	if testing.Short() {
		return uint64(full / 4)
	}
	return uint64(full)
}

// TestConformanceSweep runs randomized scenarios — sequential and
// concurrent coupling, every mapping policy, halos, multiple versions,
// restaging, fault plans — and requires byte identity with the reference
// model plus every cross-layer invariant. Every scenario runs on both
// transport backends — in process, and over TCP in the shape that ships: a
// driver and one serving node per machine node, so every expose, read and
// lookup crosses a socket — and must produce byte-identical gets and equal
// metered traffic on each. On failure the scenario is shrunk to a minimal
// reproduction before reporting.
func TestConformanceSweep(t *testing.T) {
	n := conformanceSeeds(t, 24)
	for seed := uint64(1); seed <= n; seed++ {
		sc := conformance.Generate(seed)
		if err := conformance.RunCross(sc); err != nil {
			reportShrunkCross(t, sc, err)
		}
	}
}

// TestConformanceFaultsConcurrentPulls is the sweep pinned to the
// hardest configuration: a recoverable fault plan on both backends, so
// that on the TCP leg — where a get's requests to its remote owning nodes
// run concurrently — retries and backoff run under per-peer contention.
// Results must still be byte-identical — recovered faults may never change
// data or double-meter traffic.
func TestConformanceFaultsConcurrentPulls(t *testing.T) {
	n := conformanceSeeds(t, 12)
	for seed := uint64(1); seed <= n; seed++ {
		sc := conformance.GenerateFaulty(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := conformance.RunCross(sc); err != nil {
			reportShrunkCross(t, sc, err)
		}
	}
}

// TestConformanceElastic is the sweep pinned to node-loss scenarios:
// after the first get round, on the TCP leg, node.Cluster.Replace closes a
// serving node and starts a fresh one on a new port — its
// exposed buffers and its DHT table are gone, which the harness first
// proves through the lookup; the recovery is the membership.Reconcile that
// codsrun -elastic runs, from the put ledger. The in-process leg has no
// process to lose and runs the same reconcile against its intact space.
// The re-get round must stay byte-identical to the reference model, whose
// ownership never changed, on both backends, with all accounting
// invariants intact.
func TestConformanceElastic(t *testing.T) {
	n := conformanceSeeds(t, 12)
	for seed := uint64(1); seed <= n; seed++ {
		sc := conformance.GenerateElastic(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := conformance.RunCross(sc); err != nil {
			reportShrunkCross(t, sc, err)
		}
	}
}

// TestConformanceStreaming is the sweep over streaming-coupling
// scenarios (DESIGN §5i): producers publish a bounded-lag stream of
// versions and consumers follow through cursors, under both lag policies
// — backpressure runs race producer and consumer goroutines, drop-oldest
// runs go lock-step with deterministic forced retirements, consume
// strides, mid-stream resubscribes and mid-stream kills. Every scenario
// runs on both backends and must produce byte-identical windowed gets
// against the versioned stream reference model, with retired versions
// verifiably gone from the DHT and all accounting invariants intact. The
// generator draws a mid-stream kill rarely (for none of these seeds), so
// the lock-step scenarios of even seeds that have a second node get one
// pinned (conformance.GenerateStreamingKills): the node is lost at the half-way
// round and recovered by membership.Reconcile, as in
// TestConformanceElastic.
func TestConformanceStreaming(t *testing.T) {
	n := conformanceSeeds(t, 16)
	kills := 0
	for seed := uint64(1); seed <= n; seed++ {
		sc := conformance.GenerateStreamingKills(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.Kill != 0 {
			kills++
		}
		if err := conformance.RunCross(sc); err != nil {
			reportShrunkCross(t, sc, err)
		}
	}
	if kills == 0 && !testing.Short() {
		t.Fatal("no scenario of the sweep ran a mid-stream kill")
	}
}

// reportShrunkCross shrinks a failing scenario and fails the test with
// the minimal reproduction: the original error, the runnable Go literal
// and the .dag-style repro. The cross-backend runner is the shrinking
// predicate, so failures only one backend exhibits keep reproducing while
// the scenario is minimized.
func reportShrunkCross(t *testing.T, sc conformance.Scenario, err error) {
	t.Helper()
	fails := func(c conformance.Scenario) bool {
		return conformance.RunCrossOpts(c, conformance.Options{Timeout: 20 * time.Second}) != nil
	}
	min := conformance.Shrink(sc, fails)
	t.Fatalf("cross-backend conformance failure: %v\n\nminimal failing scenario:\n%s\n\nrepro DAG:\n%s", err, min.GoLiteral(), min.DAG())
}

// TestConformanceShrinkOnForcedFailure forces a deterministic failure
// (one corrupted cell in one get) and checks the shrinking machinery end
// to end: the shrunk scenario still fails, fails identically on a second
// run (reproducible from its printed seed alone), is minimal in every
// dimension the corruption does not depend on, and prints as a runnable
// Go literal plus a .dag-style repro.
func TestConformanceShrinkOnForcedFailure(t *testing.T) {
	opts := conformance.Options{CorruptGet: true, Timeout: 20 * time.Second}
	fails := func(c conformance.Scenario) bool { return conformance.RunOpts(c, opts) != nil }

	sc := conformance.Generate(3) // arbitrary; any scenario fails under CorruptGet
	if !fails(sc) {
		t.Fatal("corrupted scenario unexpectedly passed")
	}
	min := conformance.Shrink(sc, fails)
	if err := min.Validate(); err != nil {
		t.Fatalf("shrunk scenario invalid: %v", err)
	}

	// Deterministic reproduction: two runs of the minimal scenario fail
	// with the identical error.
	err1 := conformance.RunOpts(min, opts)
	err2 := conformance.RunOpts(min, opts)
	if err1 == nil || err2 == nil {
		t.Fatalf("shrunk scenario stopped failing: %v / %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("shrunk failure not deterministic:\n%v\nvs\n%v", err1, err2)
	}

	// The corruption hits every scenario, so everything must have shrunk
	// to its floor.
	if min.Nodes != 1 || min.CoresPerNode != 1 || len(min.Domain) != 1 ||
		min.Versions != 1 || min.Vars != 1 || min.Ghost != 0 ||
		min.Faults != "" || min.Restage || min.Kill != 0 {
		t.Errorf("scenario not minimal:\n%s", min.GoLiteral())
	}

	lit := min.GoLiteral()
	if !strings.Contains(lit, "conformance.Scenario{") || !strings.Contains(lit, "Seed: 0x") {
		t.Errorf("bad Go literal:\n%s", lit)
	}
	dag := min.DAG()
	if !strings.Contains(dag, "APP_ID 1") {
		t.Errorf("bad DAG repro:\n%s", dag)
	}
	t.Logf("minimal forced-failure scenario:\n%s\n%s", lit, dag)
}
