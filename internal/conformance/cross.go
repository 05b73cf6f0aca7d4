package conformance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"github.com/insitu/cods/internal/geometry"
)

// RunStats is the backend-observable outcome of one conformance run: a
// digest of every retrieved region, the fabric's per-medium byte totals
// and the metered inter-application bytes per medium. Two backends are
// conformant when a scenario produces identical stats on both.
type RunStats struct {
	mu sync.Mutex
	// Gets maps a (rank, var, version, round, region) key to the FNV-1a
	// digest of the retrieved cells.
	Gets map[string]uint64
	// MediumBytes is the fabric total per medium (shm, network).
	MediumBytes [2]int64
	// InterApp is the metered inter-application bytes per medium.
	InterApp [2]int64
}

func newRunStats() *RunStats { return &RunStats{Gets: make(map[string]uint64)} }

func getKey(rank int, v string, version, round int, region geometry.BBox) string {
	return fmt.Sprintf("%d|%s|%d|%d|%v", rank, v, version, round, region)
}

// recordGet digests one retrieved region. Gets are deterministic per key,
// so recording is last-write-wins under the consumer concurrency.
func (s *RunStats) recordGet(key string, data []float64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	s.mu.Lock()
	s.Gets[key] = h.Sum64()
	s.mu.Unlock()
}

// RunCross runs the scenario on the in-process backend and again over TCP,
// a driver and one serving node per machine node on loopback sockets, and
// asserts both produce byte-identical gets and identical metered traffic. It is the backend dimension of the
// conformance sweep: every operation the scenario performs must mean the
// same thing whether it stays in-process or crosses real sockets.
func RunCross(sc Scenario) error { return RunCrossOpts(sc, Options{}) }

// RunCrossOpts is RunCross with explicit options (Backend and stats are
// overwritten per leg).
func RunCrossOpts(sc Scenario, opts Options) error {
	ref := opts
	ref.Backend = "inproc"
	ref.stats = newRunStats()
	if err := RunOpts(sc, ref); err != nil {
		return fmt.Errorf("in-process backend: %w", err)
	}
	tcp := opts
	tcp.Backend = "tcp"
	tcp.stats = newRunStats()
	if err := RunOpts(sc, tcp); err != nil {
		return fmt.Errorf("tcp backend: %w", err)
	}
	return compareRuns(sc, ref.stats, tcp.stats)
}

// compareRuns diffs the two backends' stats. Get digests and inter-app
// bytes must always match; the full per-medium totals (which include
// control traffic) are compared only for fault-free scenarios, where the
// retry layer cannot legitimately vary the op count between runs, and not
// for backpressure streaming runs, where the racing garbage collection
// invalidates schedules at interleaving-dependent points, so how many gets
// rebuild their schedule from a fresh lookup legitimately differs between
// runs.
func compareRuns(sc Scenario, ref, tcp *RunStats) error {
	if len(ref.Gets) != len(tcp.Gets) {
		return fmt.Errorf("conformance: backends disagree on get count: inproc %d, tcp %d\n%s",
			len(ref.Gets), len(tcp.Gets), sc.GoLiteral())
	}
	for key, want := range ref.Gets {
		got, ok := tcp.Gets[key]
		if !ok {
			return fmt.Errorf("conformance: tcp backend missing get %s\n%s", key, sc.GoLiteral())
		}
		if got != want {
			return fmt.Errorf("conformance: get %s differs across backends: inproc %016x, tcp %016x\n%s",
				key, want, got, sc.GoLiteral())
		}
	}
	for md, name := range [...]string{"shm", "network"} {
		if ref.InterApp[md] != tcp.InterApp[md] {
			return fmt.Errorf("conformance: inter-app %s bytes differ across backends: inproc %d, tcp %d\n%s",
				name, ref.InterApp[md], tcp.InterApp[md], sc.GoLiteral())
		}
		if sc.Faults == "" && !(sc.Stream && !sc.Drop) && ref.MediumBytes[md] != tcp.MediumBytes[md] {
			return fmt.Errorf("conformance: metered %s bytes differ across backends: inproc %d, tcp %d\n%s",
				name, ref.MediumBytes[md], tcp.MediumBytes[md], sc.GoLiteral())
		}
	}
	return nil
}
