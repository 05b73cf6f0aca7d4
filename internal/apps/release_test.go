package apps

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/runtime"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/workflow"
)

// runBundle registers a concurrent producer (app 1, 2x2 tasks) and consumer
// (app 2, 2x1 tasks) of variable "u" over a 16x16 domain on a 2x4 machine,
// each with a halo exchange, and runs them as one bundle, failing the test
// if the run has not returned within 20 s.
func runBundle(t *testing.T, s *runtime.Server, iterations int) error {
	t.Helper()
	size := []int{16, 16}
	for _, spec := range []runtime.AppSpec{
		{ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2}),
			Run: NewProducer(ProducerConfig{Var: "u", Iterations: iterations, Halo: 1, Mode: Concurrent})},
		{ID: 2, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 1}),
			Run: NewConsumer(ConsumerConfig{Var: "u", Producer: 1, Iterations: iterations, Halo: 1,
				Mode: Concurrent, Verify: true})},
	} {
		if err := s.RegisterApp(spec); err != nil {
			t.Fatal(err)
		}
	}
	d, err := workflow.New([]int{1, 2}, nil, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(d, runtime.DataCentric)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("the bundle still runs after 20 s: a task is parked")
		return nil
	}
}

// TestFailedReaderReleasesItsVersions: every consumer task fails its get
// of version 1 of 10 (each read after version 0's four fails). The failed
// tasks release the versions they will not read, so the producer, which
// puts version n only once version n-2 retired, runs to its end: the run
// returns the consumer's TaskError instead of parking the producer.
func TestFailedReaderReleasesItsVersions(t *testing.T) {
	s := newServer(t, 2, 4, []int{16, 16})
	plan, err := transport.ParseFaultPlan([]byte(`{"rules":[{"op":"read","mode":"error","from_op":4,"to_op":1000000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s.Fabric().SetFaultPlan(plan)
	err = runBundle(t, s, 10)
	var te *runtime.TaskError
	if !errors.As(err, &te) || te.Task.App != 2 || !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("err = %v, want the consumer's TaskError wrapping the injected read fault", err)
	}
}

// exposeWatch is the in-process fabric as its own backend, noting at each
// expose of a block of "u" how many versions of "u" are exposed with it.
type exposeWatch struct {
	*transport.Fabric
	mu      sync.Mutex
	exposed map[transport.BufKey]cluster.CoreID
	most    int
}

func (w *exposeWatch) Expose(owner cluster.CoreID, key transport.BufKey, payload any) error {
	if err := w.Fabric.Expose(owner, key, payload); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.exposed[key] = owner
	versions := make(map[int]bool)
	for k, o := range w.exposed {
		if strings.HasPrefix(k.Name, "u|") && w.Fabric.Exposed(o, k) {
			versions[k.Version] = true
		}
	}
	w.most = max(w.most, len(versions))
	return nil
}

// TestProducerExposesBoundedVersions: over 20 iterations of a concurrent
// bundle no put finds more than 3 versions of the producer exposed — each
// version is withdrawn once every consumer task released it, and the
// producer waits for that two versions on — and none is exposed after the
// run.
func TestProducerExposesBoundedVersions(t *testing.T) {
	s := newServer(t, 2, 4, []int{16, 16})
	w := &exposeWatch{Fabric: s.Fabric(), exposed: make(map[transport.BufKey]cluster.CoreID)}
	s.Fabric().SetBackend(w)
	const iterations = 20
	if err := runBundle(t, s, iterations); err != nil {
		t.Fatal(err)
	}
	if w.most > 3 {
		t.Fatalf("a put found %d versions exposed, want at most 3", w.most)
	}
	for k, owner := range w.exposed {
		if s.Fabric().Exposed(owner, k) {
			t.Fatalf("%v still exposed at core %d after the run", k, owner)
		}
	}
	if len(w.exposed) != 4*iterations {
		t.Fatalf("%d blocks exposed in the run, want %d", len(w.exposed), 4*iterations)
	}
}
