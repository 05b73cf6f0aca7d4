package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestTracerNodeLabels covers the cross-process additions: a node label on
// the spans StartNode begins and on no other, and ID namespacing via
// SetIDBase.
func TestTracerNodeLabels(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetIDBase(1 << 48)

	s := tr.Start(0, "pull:u")
	tr.Event(s.ID(), "retry")
	tr.StartNode(SpanID(7), "remote:read:u", "node5").End()
	s.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 { // pull b/e, retry i, remote b/e
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for _, ev := range evs {
		if ev.ID <= 1<<48 {
			t.Fatalf("span id %d not namespaced above the base", ev.ID)
		}
		switch ev.Name {
		case "pull:u", "retry":
			if ev.Node != "" {
				t.Fatalf("%s node = %q, want no label", ev.Name, ev.Node)
			}
		case "remote:read:u":
			if ev.Node != "node5" {
				t.Fatalf("explicit label lost: %+v", ev)
			}
			if ev.Ev == "b" && ev.Parent != 7 {
				t.Fatalf("remote span parent = %d, want propagated 7", ev.Parent)
			}
		}
	}
}

func TestAppendRawMerge(t *testing.T) {
	// A "remote" tracer with a namespaced ID range...
	var remote bytes.Buffer
	rt := NewTracer(&remote)
	rt.SetIDBase(2 << 48)
	rt.StartNode(3, "remote:call:dht", "node1").End()
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}

	// ...drained into the driver's stream, interleaved with local spans.
	var merged bytes.Buffer
	dt := NewTracer(&merged)
	root := dt.Start(0, "workflow")
	dt.AppendRaw(remote.Bytes())
	dt.AppendRaw(nil)                                                   // no-op
	dt.AppendRaw([]byte(`{"ev":"i","id":99,"parent":1,"name":"note"}`)) // missing newline
	root.End()
	if err := dt.Flush(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadSpans(&merged)
	if err != nil {
		t.Fatalf("merged stream unparseable: %v\n%s", err, merged.String())
	}
	var names []string
	for _, ev := range evs {
		names = append(names, ev.Ev+":"+ev.Name)
	}
	if got := strings.Join(names, " "); got != "b:workflow b:remote:call:dht e:remote:call:dht i:note e:workflow" {
		t.Fatalf("merged order = %q", got)
	}
	(&Tracer{}).AppendRaw(nil) // zero-value safety
	var nilT *Tracer
	nilT.AppendRaw([]byte("x"))
}

// TestAppendRawConcurrent races local emission against raw splices; the
// merged output must still be whole JSON lines. Run with -race.
func TestAppendRawConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	chunk := []byte(`{"ev":"i","id":424242,"name":"remote"}` + "\n")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Start(0, "local").End()
				tr.AppendRaw(chunk)
			}
		}()
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatalf("interleaved stream corrupted: %v", err)
	}
	if len(evs) != 4*200*3 {
		t.Fatalf("got %d events, want %d", len(evs), 4*200*3)
	}
}
