package tcpnet

import (
	"bytes"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport"
)

// TestRemoteSpanCapture drives reads and calls carrying trace context
// from a driver and asserts the serving side emits one node-labelled
// handler span per operation, parented under the requesting span id that
// travelled in the frame. A serving node always captures; a frame with
// span 0 (an untraced driver) leaves its sink empty.
func TestRemoteSpanCapture(t *testing.T) {
	f, b, servers := newCluster(t, 2, 2)

	key := transport.BufKey{Name: "var", Version: 1}
	if err := servers[1].fabric.Endpoint(3).Expose(key, &blockPayload{Text: "x", Vals: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(f.Endpoint(0), 3, key, transport.Meter{Class: cluster.InterApp}, 8, 1); err != nil {
		t.Fatal(err)
	}
	if spans, _ := servers[1].serveSpans(nil); len(spans) != 0 {
		t.Fatalf("a read with span 0 left %d bytes in the node's span sink", len(spans))
	}
	m := transport.Meter{Phase: "test", Class: cluster.InterApp, DstApp: 2, Span: 42}
	if _, err := readOne(f.Endpoint(0), 3, key, m, 8, 1); err != nil {
		t.Fatal(err)
	}
	servers[1].fabric.Endpoint(2).RegisterHandler("echo", func(_ cluster.CoreID, req any) (any, error) { return req, nil })
	cm := transport.Meter{Phase: "test", Class: cluster.Control, Span: 43}
	if _, err := f.Endpoint(1).Call(2, "echo", echoPayload{Text: "hi"}, cm, 8, 8); err != nil {
		t.Fatal(err)
	}
	// Context-free operations must not produce spans.
	if _, err := readOne(f.Endpoint(0), 3, key, transport.Meter{Class: cluster.InterApp}, 8, 1); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	tr := obs.NewTracer(&out)
	if err := b.DrainRemoteSpans(tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadSpans(&out)
	if err != nil {
		t.Fatal(err)
	}
	begins := map[string]obs.SpanEvent{}
	for _, ev := range evs {
		if ev.Ev == "b" {
			begins[ev.Name] = ev
		}
	}
	if len(begins) != 2 {
		t.Fatalf("captured %d distinct spans, want read + call only: %v", len(begins), begins)
	}
	read := begins["remote:readmulti:1"]
	if read.Parent != 42 || read.Node != "node1" {
		t.Fatalf("read span parent=%d node=%q, want 42/node1", read.Parent, read.Node)
	}
	call := begins["remote:call:echo"]
	if call.Parent != 43 || call.Node != "node1" {
		t.Fatalf("call span parent=%d node=%q, want 43/node1", call.Parent, call.Node)
	}
	if read.ID <= 1<<48 {
		t.Fatalf("handler span id %d not namespaced above the node base", read.ID)
	}

	// The buffer was drained: a second drain ships nothing.
	var again bytes.Buffer
	tr2 := obs.NewTracer(&again)
	if err := b.DrainRemoteSpans(tr2); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Flush(); err != nil {
		t.Fatal(err)
	}
	if again.Len() != 0 {
		t.Fatalf("second drain returned %d bytes", again.Len())
	}
}

// TestRemoteSpanDrainRace races span-emitting remote reads against
// concurrent drains; the merged stream must stay whole JSON lines and
// lose no span. Run with -race.
func TestRemoteSpanDrainRace(t *testing.T) {
	f, b, servers := newCluster(t, 2, 2)
	key := transport.BufKey{Name: "var", Version: 1}
	if err := servers[1].fabric.Endpoint(2).Expose(key, &blockPayload{Text: "x", Vals: []float64{1}}); err != nil {
		t.Fatal(err)
	}

	const workers, opsPer = 4, 50
	var out bytes.Buffer
	tr := obs.NewTracer(&out)
	stop := make(chan struct{})
	var drains sync.WaitGroup
	drains.Add(1)
	go func() {
		defer drains.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := b.DrainRemoteSpans(tr); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				m := transport.Meter{Phase: "test", Class: cluster.InterApp,
					Span: uint64(1000 + w*opsPer + i)}
				if _, err := readOne(f.Endpoint(0), 2, key, m, 8, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	drains.Wait()
	if err := b.DrainRemoteSpans(tr); err != nil { // final sweep
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadSpans(&out)
	if err != nil {
		t.Fatalf("merged stream corrupted: %v", err)
	}
	parents := map[obs.SpanID]bool{}
	for _, ev := range evs {
		if ev.Ev == "b" {
			if ev.Node != "node1" {
				t.Fatalf("span missing node label: %+v", ev)
			}
			parents[ev.Parent] = true
		}
	}
	if len(parents) != workers*opsPer {
		t.Fatalf("drained %d distinct spans, want %d", len(parents), workers*opsPer)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < opsPer; i++ {
			if id := obs.SpanID(1000 + w*opsPer + i); !parents[id] {
				t.Fatalf("span parented under %d lost", id)
			}
		}
	}
}
