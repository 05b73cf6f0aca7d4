package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The span tracer records begin/end events of named operations with parent
// linkage, so a workflow run can be unfolded into a tree: workflow ->
// bundle group -> task -> pull. Events are serialized as JSON Lines, the
// same stream-appendable one-object-per-line format the flow dump
// (cluster.Flow, codsrun -flows) uses — a span trace extends a flow trace
// rather than replacing it, and the two can be concatenated into one file
// without ambiguity (span events carry an "ev" discriminator field flows
// never have).

// SpanID identifies one span within a tracer. 0 means "no span" and is
// used as the root parent.
type SpanID uint64

// SpanEvent is the serialized form of one tracer event.
type SpanEvent struct {
	// Ev discriminates the event kind: "b" for begin, "e" for end, "i"
	// for an instantaneous event (retries, injected faults, recoveries).
	Ev string `json:"ev"`
	// ID is the span's identifier, unique per tracer.
	ID SpanID `json:"id"`
	// Parent links to the enclosing span (0 = root).
	Parent SpanID `json:"parent,omitempty"`
	// Name labels the operation, e.g. "task:2:1" or "pull:data.1".
	Name string `json:"name"`
	// T is the event time in nanoseconds relative to the tracer's start.
	// In a merged cross-process trace each process's events keep their own
	// origin; parent linkage, not T, is what relates spans across nodes.
	T int64 `json:"t_ns"`
	// Dur is the span duration in nanoseconds, set on end events.
	Dur int64 `json:"dur_ns,omitempty"`
	// Node labels the emitting node in a merged cross-process trace
	// (e.g. "node2"). Empty for driver-local spans.
	Node string `json:"node,omitempty"`
}

// Tracer streams span events to a writer. All methods are safe for
// concurrent use, and every method on a nil *Tracer is a no-op, so
// instrumented code never branches on whether tracing is wired up.
type Tracer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	err    error
	start  time.Time
	nextID atomic.Uint64
}

// NewTracer creates a tracer writing JSON Lines span events to w.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{bw: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// SetIDBase namespaces the tracer's span identifiers: subsequent spans get
// IDs strictly above base. When traces from several processes are merged
// into one file, giving each process a disjoint base (node k starts at
// (k+1)<<48, the driver stays below 1<<48) keeps IDs unique without any
// cross-process coordination. Call before the first Start. Safe on nil.
func (t *Tracer) SetIDBase(base uint64) {
	if t == nil {
		return
	}
	t.nextID.Store(base)
}

// Span is a live span handle; call End exactly once.
type Span struct {
	tr    *Tracer
	id    SpanID
	name  string
	node  string
	begin time.Time
}

// ID returns the span's identifier (0 for the zero Span).
func (s Span) ID() SpanID { return s.id }

// Start begins a new span under parent (0 for a root span) and writes its
// begin event.
func (t *Tracer) Start(parent SpanID, name string) Span {
	if t == nil {
		return Span{}
	}
	return t.StartNode(parent, name, "")
}

// StartNode begins a span like Start, labelled with the node that emits
// it. A tcpnet.Server uses this to label each handler span with the node
// that executed it.
func (t *Tracer) StartNode(parent SpanID, name, node string) Span {
	if t == nil {
		return Span{}
	}
	id := SpanID(t.nextID.Add(1))
	now := time.Now()
	t.emit(SpanEvent{Ev: "b", ID: id, Parent: parent, Name: name, T: now.Sub(t.start).Nanoseconds(), Node: node})
	return Span{tr: t, id: id, name: name, begin: now, node: node}
}

// End writes the span's end event with its measured duration. End on the
// zero Span is a no-op.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	now := time.Now()
	s.tr.emit(SpanEvent{
		Ev:   "e",
		ID:   s.id,
		Name: s.name,
		T:    now.Sub(s.tr.start).Nanoseconds(),
		Dur:  now.Sub(s.begin).Nanoseconds(),
		Node: s.node,
	})
}

// Event emits an instantaneous event under parent (ev "i"): a named point
// in time with no duration, used for retries, injected faults and
// recoveries. Safe on a nil tracer.
func (t *Tracer) Event(parent SpanID, name string) {
	if t == nil {
		return
	}
	id := SpanID(t.nextID.Add(1))
	t.emit(SpanEvent{Ev: "i", ID: id, Parent: parent, Name: name, T: time.Since(t.start).Nanoseconds()})
}

// AppendRaw splices pre-encoded JSON Lines span events — the drained
// buffer of a remote tracer — into this tracer's stream. The bytes are
// written verbatim (a trailing newline is added if missing), interleaved
// atomically with locally emitted events, so a driver can fold every
// node's spans into its own trace file before Flush. Remote events keep
// their own time origin; parent linkage relates them to driver spans.
// Safe on a nil tracer and with empty input.
func (t *Tracer) AppendRaw(lines []byte) {
	if t == nil || len(lines) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := t.bw.Write(lines); err != nil {
		t.err = err
		return
	}
	if lines[len(lines)-1] != '\n' {
		t.err = t.bw.WriteByte('\n')
	}
}

// emit serializes one event; the first write error sticks and is returned
// by Flush.
func (t *Tracer) emit(ev SpanEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(ev)
}

// Flush drains buffered events to the underlying writer and returns the
// first error seen, if any. Safe on a nil tracer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// ReadSpans loads a JSON Lines span trace, reporting malformed input with
// its 1-based line number.
func ReadSpans(r io.Reader) ([]SpanEvent, error) {
	br := bufio.NewReader(r)
	var out []SpanEvent
	line := 0
	for {
		text, err := br.ReadString('\n')
		if text != "" {
			line++
			if trimmed := strings.TrimSpace(text); trimmed != "" {
				var ev SpanEvent
				if uerr := json.Unmarshal([]byte(trimmed), &ev); uerr != nil {
					return nil, fmt.Errorf("obs: line %d: %w", line, uerr)
				}
				out = append(out, ev)
			}
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
