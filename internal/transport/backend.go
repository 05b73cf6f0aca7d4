package transport

// The fabric's data movement is pluggable: every operation on state a node
// holds — the one-sided ReadMulti, the RPC Call, and the buffer-exposure
// ops — is executed by the fabric's Backend. Send/Recv messaging is not
// among them: mailboxes live in the process that runs the tasks
// (Endpoint.Send). Each process has one executor. An in-process fabric is
// its own backend, and a serving node's fabric executes what its server
// hands it; the internal/transport/tcpnet package provides the driver, a
// backend that runs each simulated node as its own endpoint group over
// sockets (DESIGN §5f). The executing methods contain the metering, so an
// op records its bytes exactly once, in the process that actually moves
// the data.

import (
	"fmt"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
)

// Backend executes the fabric's operations on node-held state where that
// state lives (exposed buffers, RPC handlers) and meters them there. A
// fabric is its own backend until SetBackend installs another; a fabric
// with a network backend owns no node's state — it is a driver.
type Backend interface {
	// ReadMulti pulls one or more exposed sub-regions in one operation,
	// blocking until every buffer is published. The specs may target owners
	// behind any number of peers; a network backend sends each peer one
	// request frame for its run of specs. Each spec is metered at
	// spec.Bytes on the executing side. deliver is invoked once per spec,
	// with the spec's index in the call and the owner-clipped raw cell
	// bytes of spec.Sub (see SegmentFunc), in spec order among the specs of
	// one peer; specs of different peers may be delivered concurrently. A
	// backend attributes a failure to a spec by returning a *SpecError.
	ReadMulti(reader cluster.CoreID, specs []ReadSpec, m Meter, deliver SegmentFunc) error
	// Call performs a synchronous RPC against a service on dst.
	Call(src, dst cluster.CoreID, service string, request any, m Meter, reqBytes, respBytes int64) (any, error)
	// Expose / Unexpose manage owner's one-sided buffers; withdrawing an
	// absent buffer is no error. A backend that moves the payload to
	// another process requires it to be a BlockPayload.
	Expose(owner cluster.CoreID, key BufKey, payload any) error
	Unexpose(owner cluster.CoreID, key BufKey) error
}

var _ Backend = (*Fabric)(nil)

// ReadSpec is one element of a batched ReadMulti: pull the cells of Sub
// out of the buffer Key exposed by Owner. Bytes is the metered volume of
// the transfer — it is what the executing side records, so
// schedule-predicted accounting is identical across backends.
type ReadSpec struct {
	Owner cluster.CoreID
	Key   BufKey
	Sub   geometry.BBox
	Bytes int64
}

// SpecError is a ReadMulti failure attributed to one spec of the call:
// Index is its position among the call's specs — for a network backend the
// first spec of the peer whose exchange failed, for an injected fault the
// spec the fault was drawn for. It prints and unwraps as its cause.
type SpecError struct {
	Index int
	Err   error
}

func (e *SpecError) Error() string { return e.Err.Error() }

func (e *SpecError) Unwrap() error { return e.Err }

// SegmentFunc consumes the result of one ReadSpec of a batch. Exactly one
// of payload and clipped is set: payload is the owner's full exposed
// buffer (in-process, where the reader clips), clipped is the owner-clipped
// raw cell data of the spec's sub-box — Sub intersected with the exposed
// region, row-major, big-endian float64 bits, the runs of
// RegionClipper.ClipRows end to end. clipped is only valid until the
// callback returns; implementations reuse the buffer. A network backend
// may run the function for specs of different peers at the same time.
type SegmentFunc func(i int, payload any, clipped []byte) error

// RegionClipper is implemented by exposed payloads a network backend can
// serve sub-boxes of: ClipRows appends to rows the runs of raw cell bytes
// that hold sub (clipped to the payload's own region), row-major, and
// returns the extended list. Every run aliases the payload, which nothing
// writes to while it is exposed, so the backend serving a ReadMulti hands
// the runs to one vectored write as they are and copies no cell.
type RegionClipper interface {
	ClipRows(rows [][]byte, sub geometry.BBox) ([][]byte, error)
}

// BlockPayload is implemented by exposed payloads a network backend can
// ship between processes. AppendBlock appends the payload's region header
// to dst and returns it with the cells (or why the payload cannot be
// shipped): row-major float64 bits in this host's byte order, a view of the
// payload's memory the backend only reads, and only until Expose returns.
// The receiving process is told that order, puts the cells in big-endian
// order as they land, and turns header and cells into a RegionClipper
// through the decoder installed with RegisterBlockDecoder, so the backend
// never learns the payload's type (tcpnet must not import cods).
type BlockPayload interface {
	AppendBlock(dst []byte) (header, cells []byte, err error)
}

// CellBytes is the size of one cell in the block wire form and in a
// segment: a float64.
const CellBytes = 8

// blockDecoder reverses the BlockPayload wire form, its cells big-endian,
// in the receiving process; set once, from the init of the block's package.
var blockDecoder func(wire []byte) (any, error)

// RegisterBlockDecoder installs the decoder of the block wire form. It is
// called from init by the one package whose payloads cross the wire as
// blocks; a second registration is a programming error. The decoder may
// retain its input: the payload it returns may be wire itself, clipped in
// the form it arrived in.
func RegisterBlockDecoder(dec func(wire []byte) (any, error)) {
	if blockDecoder != nil {
		panic("transport: block decoder registered twice")
	}
	blockDecoder = dec
}

// DecodeBlock rebuilds an exposed payload, a RegionClipper, from the wire
// form of a BlockPayload. The payload may retain wire, so a caller hands
// over a buffer nothing writes to while the payload is in use.
func DecodeBlock(wire []byte) (any, error) {
	if blockDecoder == nil {
		return nil, fmt.Errorf("transport: no block decoder registered")
	}
	return blockDecoder(wire)
}

// SetBackend installs a network backend; nil makes the fabric its own
// backend again, executing in process. It must be called before any
// endpoint traffic starts — installation is not synchronized with
// in-flight operations.
func (f *Fabric) SetBackend(b Backend) {
	if b == nil {
		b = f
	}
	f.backend = b
}

// ReadMulti executes a batch of reads against owner endpoints in this
// process: each spec, in turn, is a blocking Read metered at spec.Bytes,
// delivered as the full exposed payload for the reader to clip. A failure
// is a *SpecError naming its spec, as a network backend names the spec of
// the failing run.
func (f *Fabric) ReadMulti(reader cluster.CoreID, specs []ReadSpec, m Meter, deliver SegmentFunc) error {
	for i, spec := range specs {
		payload, err := f.Read(reader, spec.Owner, spec.Key, m, spec.Bytes, 0, nil)
		if err == nil {
			err = deliver(i, payload, nil)
		}
		if err != nil {
			return &SpecError{Index: i, Err: err}
		}
	}
	return nil
}

// Read executes one read spec against an owner endpoint in this process:
// it waits for the buffer to be exposed, meters the pull and returns the
// exposed payload for the reader to copy from. patience bounds the
// deferred wait (0 waits forever): a buffer not exposed within it fails
// the read with ErrReadPatience. A serving process passes the patience its
// reader sent: a reader that may race a node replacement sends a bound — a
// read routed to a process that will never receive the buffer (staged
// before the replacement, re-staged elsewhere) must surface a transient
// error rather than hold the exchange open forever while the reader's
// retry layer sees no failure. hold, when not nil, is called with the
// payload while it is still exposed, under the lock a withdrawal takes: a
// serving node that recycles the memory of withdrawn payloads pins it
// there, so no withdrawal can come between the read and the pin.
func (f *Fabric) Read(reader, owner cluster.CoreID, key BufKey, m Meter, n int64, patience time.Duration, hold func(payload any)) (any, error) {
	oe := f.endpoints[int(owner)]
	expired := false
	if patience > 0 {
		timer := time.AfterFunc(patience, func() {
			oe.exportMu.Lock()
			expired = true
			oe.exportMu.Unlock()
			oe.exportCond.Broadcast()
		})
		defer timer.Stop()
	}
	oe.exportMu.Lock()
	for {
		if oe.exportClosed {
			oe.exportMu.Unlock()
			return nil, fmt.Errorf("transport: reading %v from endpoint %d: %w", key, owner, ErrEndpointClosed)
		}
		if payload, ok := oe.exports[key]; ok {
			if hold != nil {
				hold(payload)
			}
			oe.exportMu.Unlock()
			f.record(m, owner, reader, n)
			return payload, nil
		}
		if expired {
			oe.exportMu.Unlock()
			return nil, fmt.Errorf("transport: reading %v from endpoint %d after %s: %w", key, owner, patience, ErrReadPatience)
		}
		oe.exportCond.Wait()
	}
}

// Call executes an RPC against a dst endpoint in this process. The handler
// runs inline, on the calling goroutine — the serving connection's
// goroutine on a serving node — so a handler must not wait on another task
// (RegisterHandler). A handler panic comes back as an error.
func (f *Fabric) Call(src, dst cluster.CoreID, service string, request any, m Meter, reqBytes, respBytes int64) (resp any, err error) {
	de := f.endpoints[int(dst)]
	de.mu.Lock()
	closed := de.closed
	de.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("transport: calling %q on endpoint %d: %w", service, dst, ErrEndpointClosed)
	}
	handlerMu.Lock()
	h := de.handlers[service]
	handlerMu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("transport: no handler %q on core %d", service, dst)
	}
	// Request travels src -> dst, response dst -> src.
	f.record(m, src, dst, reqBytes)
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("transport: handler %q on core %d panicked: %v", service, dst, r)
		}
	}()
	if resp, err = h(src, request); err != nil {
		return nil, err
	}
	f.record(m, dst, src, respBytes)
	return resp, nil
}

// Expose publishes a buffer on an owner endpoint in this process.
func (f *Fabric) Expose(owner cluster.CoreID, key BufKey, payload any) error {
	oe := f.endpoints[int(owner)]
	oe.exportMu.Lock()
	defer oe.exportMu.Unlock()
	if _, ok := oe.exports[key]; ok {
		return fmt.Errorf("%w: %v on core %d", ErrExposed, key, owner)
	}
	oe.exports[key] = payload
	oe.exportCond.Broadcast()
	return nil
}

// Unexpose withdraws a buffer published on an owner endpoint in this
// process; an absent buffer is no error.
func (f *Fabric) Unexpose(owner cluster.CoreID, key BufKey) error {
	f.Withdraw(owner, key)
	return nil
}

// Withdraw is Unexpose for a serving node that recycles withdrawn memory:
// it returns the payload it withdrew, or nil for an absent buffer.
func (f *Fabric) Withdraw(owner cluster.CoreID, key BufKey) any {
	oe := f.endpoints[int(owner)]
	oe.exportMu.Lock()
	payload := oe.exports[key]
	delete(oe.exports, key)
	oe.exportMu.Unlock()
	return payload
}

// Exposed reports whether key is published on an owner endpoint in this
// process.
func (f *Fabric) Exposed(owner cluster.CoreID, key BufKey) bool {
	oe := f.endpoints[int(owner)]
	oe.exportMu.Lock()
	defer oe.exportMu.Unlock()
	_, ok := oe.exports[key]
	return ok
}

// ExposedCount returns how many buffers are published on an owner
// endpoint in this process.
func (f *Fabric) ExposedCount(owner cluster.CoreID) int {
	oe := f.endpoints[int(owner)]
	oe.exportMu.Lock()
	defer oe.exportMu.Unlock()
	return len(oe.exports)
}

// MergeMediumStats folds the per-medium transfer totals recorded by
// another process's fabric (a codsnode child) into this one, mirroring
// them into the obs registry exactly the way record does, so driver-side
// reports reconcile across processes. The per-transfer size histogram is
// not merged — it stays a per-process distribution.
func (f *Fabric) MergeMediumStats(shmBytes, shmOps, netBytes, netOps int64) {
	f.stats[cluster.SharedMemory].bytes.Add(shmBytes)
	f.stats[cluster.SharedMemory].ops.Add(shmOps)
	f.stats[cluster.Network].bytes.Add(netBytes)
	f.stats[cluster.Network].ops.Add(netOps)
	obsBytes[cluster.SharedMemory].Add(shmBytes)
	obsOps[cluster.SharedMemory].Add(shmOps)
	obsBytes[cluster.Network].Add(netBytes)
	obsOps[cluster.Network].Add(netOps)
}

// WireMessage is an RPC request or response that crosses process boundaries
// through a network backend. AppendWire appends the message's whole wire
// form — its registered tag byte, then its fields — to dst and returns the
// extended slice; the decoder registered under the tag reverses it.
type WireMessage interface {
	AppendWire(dst []byte) []byte
}

// messages maps a tag to the strict decoder of the fields behind it and to a
// representative value (what the codec's tests and fuzz seeds round-trip);
// filled from inits, read-only afterwards. Tag 0 is the nil, empty payload.
var messages [256]struct {
	sample WireMessage
	decode func(fields []byte) (WireMessage, error)
}

// RegisterMessage installs the decoder of one control message under its tag,
// from the init of the package that owns the type; a zero or duplicate tag,
// or a sample that writes another tag than this one, is a programming error.
func RegisterMessage(tag uint8, sample WireMessage, decode func(fields []byte) (WireMessage, error)) {
	if tag == 0 || messages[tag].decode != nil {
		panic(fmt.Sprintf("transport: message tag %d (%T) is zero or already registered", tag, sample))
	}
	if wire := sample.AppendWire(nil); len(wire) == 0 || wire[0] != tag {
		panic(fmt.Sprintf("transport: message %T does not write its tag %d first", sample, tag))
	}
	messages[tag].sample, messages[tag].decode = sample, decode
}

// EncodePayload serializes an RPC payload for the wire: nil encodes to an
// empty buffer, a registered WireMessage to its tagged binary form, and
// anything else is an error naming the type.
func EncodePayload(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	if m, ok := v.(WireMessage); ok {
		if wire := m.AppendWire(nil); len(wire) > 0 && messages[wire[0]].decode != nil {
			return wire, nil
		}
	}
	return nil, fmt.Errorf("transport: encoding payload %T: not a registered wire message", v)
}

// DecodePayload reverses EncodePayload; empty input decodes to nil. The
// tag's decoder is strict: every byte of data is accounted for or it fails.
func DecodePayload(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, nil
	}
	decode := messages[data[0]].decode
	if decode == nil {
		return nil, fmt.Errorf("transport: decoding payload: unknown message tag %d", data[0])
	}
	m, err := decode(data[1:])
	if err != nil {
		return nil, fmt.Errorf("transport: decoding message tag %d: %w", data[0], err)
	}
	return m, nil
}
