// Package tcpnet is the real-network transport backend (DESIGN §5f), in
// two halves that share only this file, the wire: the driver (Backend,
// from Connect) dials every node behind a versioned handshake and sends
// every request; a server (Server, from Serve) answers one node's. A
// binary links the half it builds. Neither retries: a failed exchange is
// the caller's to retry. The serving side meters each operation through
// its fabric's executing methods, so accounting reconciles byte for byte
// with the in-process fabric.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport"
)

// Wire operations. opResp is the single response op; the request op a
// response answers is implied by the connection's strict request/response
// discipline. Every request is initiated by the driver, the process that
// runs the tasks: no op carries a peer address, so a serving process
// answers and never dials. What each request and its answer carry is its
// row of the op table (ops).
const (
	opHello uint8 = iota + 1
	opResp
	opCall
	opExpose
	opUnexpose
	opExposed
	opStats
	opShutdown
	opReadMulti // batched scatter-gather read: one frame out, segment stream back
	opSpans     // drain the node's buffered remote span events (JSON Lines)
	opMax       // one past the last valid op
)

// opRow is one request op on the wire: its name, the payload kinds of its
// request and answer, and whether its Dst must be a core served there. A
// server admits requests by it (dispatch), a driver checks answers (exchange).
type opRow struct {
	name      string
	req, resp uint8
	target    bool
}

// ops is the op table by op code; opHello and opResp have none (no name).
var ops = [opMax]opRow{
	opCall:      {name: "call", req: payloadMsg, resp: payloadMsg, target: true},
	opExpose:    {name: "expose", req: payloadBlock, target: true},
	opUnexpose:  {name: "unexpose", target: true},
	opExposed:   {name: "exposed", target: true},
	opStats:     {name: "stats", resp: payloadGob},
	opSpans:     {name: "spans"},
	opShutdown:  {name: "shutdown"},
	opReadMulti: {name: "readmulti", target: true},
}

// Response statuses.
const (
	statusOK uint8 = iota
	statusErr
	statusClosed   // the target endpoint is closed (transport.ErrEndpointClosed)
	statusNotFound // Exposed of an absent buffer: not an error
	statusPatience // not exposed within the reader's patience (transport.ErrReadPatience)
	statusExposed  // expose of a key already exposed (transport.ErrExposed)
)

// errNotExposed is the answer to an Exposed probe of an absent buffer,
// sent as statusNotFound without text.
var errNotExposed = errors.New("tcpnet: buffer not exposed")

// Handshake constants. helloMagic rides in the Tag field of the opHello
// frame; bumping wireVersion invalidates cached connections from older
// binaries at the handshake instead of corrupting mid-stream. A
// mismatched peer is rejected at the handshake (there is no per-op
// fallback — a driver must match its codsnode children), which is a clean
// fast failure instead of an old server hanging on a frame layout it
// cannot decode. CHANGES.md (Wire versions) lists what each version changed.
const (
	helloMagic  uint64 = 0x434F44534E455400 // "CODSNET\0"
	wireVersion uint8  = 17
)

// Cell orders a driver's hello declares (Status): the byte order of the
// cells its expose bodies carry, its host's (transport.BlockPayload).
const (
	cellsBigEndian uint8 = iota
	cellsLittleEndian
)

// hostCells is this host's cell order: {1, 0} is 1 little-endian, 256 (0 as a byte) big-endian.
var hostCells = uint8(binary.NativeEndian.Uint16([]byte{cellsLittleEndian, cellsBigEndian}))

// Payload kinds: what the bytes in a frame's Payload section are. The kind
// travels in its own header field, so a handler never guesses a codec from
// the op: a request of another kind than its op row's is refused, and so
// is an answer.
const (
	payloadRaw   uint8 = iota // opaque bytes or none: spec lists, span lines
	payloadGob                // gob: the opStats reply, once per run
	payloadBlock              // transport.BlockPayload wire form: an exposed block
	payloadMsg                // transport.WireMessage tagged binary form: RPC requests and responses
	payloadKindMax
)

// maxFrame bounds a frame body and a segment body (64 MiB) so a corrupted
// length prefix cannot make a reader allocate unboundedly.
const maxFrame = 64 << 20

// ioTimeout bounds a dial with its handshake, each frame write and each
// response read but a ReadMulti's segment stream, which ReadPatience bounds.
const ioTimeout = 5 * time.Second

// armWrite gives the next write on c the per-frame deadline d.
func armWrite(c net.Conn, d time.Duration) { c.SetWriteDeadline(time.Now().Add(d)) }

// readBufSize is the read buffer every connection gets, on both ends: a
// control frame, or a response frame with the small segments gathered
// behind it, arrives in one read. A body larger than the buffer is read
// straight into its destination (bufio.Reader bypasses its buffer then).
const readBufSize = 4 << 10

// exposeChunk is the size of the pieces an exposed block is written and
// read in (256 KiB): the sender's kernel copies each piece while the next
// is still to come, and the owner converts each piece it reads while the
// piece is still in cache.
const exposeChunk = 256 << 10

// frame is the unit of the wire protocol: a 4-byte big-endian body length
// followed by a fixed header, three length-prefixed strings and the
// length-prefixed payload. Field use per op:
//
//	Kind         what Payload holds (payloadRaw, payloadGob, payloadBlock,
//	             payloadMsg)
//	Status       response status (opResp), the sender's cell order (hello)
//	Src/Dst      initiating and target core (Dst also the owner for
//	             buffer ops, the node for hello)
//	Tag          helloMagic (hello), the reader's read patience in
//	             nanoseconds (readmulti request)
//	Version      BufKey version (expose/...), wire version (hello)
//	Bytes/Bytes2 metered sizes: req/resp (call), machine shape
//	             nodes/cores (hello); Bytes is the segment count in a
//	             readmulti response
//	MeterClass   cluster.Class of the carried Meter
//	DstApp       Meter.DstApp
//	Span         requesting-side span id (Meter.Span), 0 = no span;
//	             trace context only, never metered
//	Name         BufKey name or RPC service name
//	Phase        Meter.Phase
//	Err          error text (opResp with an error status)
//	Payload      a spec list or span lines (raw), a stats reply (gob), an
//	             exposed block (block), an RPC request or response (msg)
//
// A decoded frame's Payload aliases the body it was decoded from.
type frame struct {
	Op         uint8
	Status     uint8
	MeterClass uint8
	Kind       uint8
	Src        int32
	Dst        int32
	DstApp     int32
	Tag        uint64
	Version    int64
	Bytes      int64
	Bytes2     int64
	Span       uint64
	Name       string
	Phase      string
	Err        string
	Payload    []byte
}

// fixedHeaderLen is the byte length of the fixed part of a frame body.
const fixedHeaderLen = 4 + 3*4 + 8 + 3*8 + 8

// errShortFrame rejects bodies that end before their declared content;
// errTrailingData rejects bodies that continue past it. Both make the
// decoder strict: a frame is valid only when every byte is accounted for.
var (
	errShortFrame   = errors.New("tcpnet: short frame")
	errTrailingData = errors.New("tcpnet: trailing data after frame")
)

// appendFrameHeader encodes fr's body up to and including the payload
// length, for a payload of n bytes — everything but the payload bytes —
// onto dst.
func appendFrameHeader(dst []byte, fr *frame, n int) []byte {
	dst = append(dst, fr.Op, fr.Status, fr.MeterClass, fr.Kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(fr.Src))
	dst = binary.BigEndian.AppendUint32(dst, uint32(fr.Dst))
	dst = binary.BigEndian.AppendUint32(dst, uint32(fr.DstApp))
	dst = binary.BigEndian.AppendUint64(dst, fr.Tag)
	dst = binary.BigEndian.AppendUint64(dst, uint64(fr.Version))
	dst = binary.BigEndian.AppendUint64(dst, uint64(fr.Bytes))
	dst = binary.BigEndian.AppendUint64(dst, uint64(fr.Bytes2))
	dst = binary.BigEndian.AppendUint64(dst, fr.Span)
	for _, s := range []string{fr.Name, fr.Phase, fr.Err} {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// bufPool recycles the encode buffers of the write path: frame and segment
// headers with their inlined small bodies, and spec lists. Oversized
// buffers are not returned, so one huge string section cannot pin its
// allocation in the pool forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf bounds the capacity of an encode buffer the pool will keep
// (64 KiB): a header plus an inlined body (maxInlineBody) fits with room
// to spare.
const maxPooledBuf = 64 << 10

// maxInlineBody is the largest payload or segment body copied behind its
// header into the encode buffer and sent with a single write; a larger one
// is never copied — header and body leave as one vectored write.
const maxInlineBody = 16 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// stagePool recycles the staging buffers a driver receives segments into
// before scattering them. A buffer grows to the largest body it has held,
// so in steady state none allocates. An exposed block is staged on neither
// side (DESIGN §5f).
var stagePool = sync.Pool{New: func() any { return new([]byte) }}

// maxStagedBuf bounds the capacity of a staging buffer the pool will keep
// (8 MiB, four times the benchmark's largest segment); a larger segment is
// staged in a one-off allocation the collector reclaims, so the pool's
// footprint is at most maxStagedBuf per concurrently served connection.
const maxStagedBuf = 8 << 20

func getStage() *[]byte { return stagePool.Get().(*[]byte) }

func putStage(bp *[]byte) {
	if cap(*bp) > maxStagedBuf {
		return
	}
	*bp = (*bp)[:0]
	stagePool.Put(bp)
}

// runsPool recycles the buffer lists vectored writes are made from — the
// runs a server writes a segment from, the head of an expose — so a warm
// serve allocates nothing per segment, nor an expose its list. A list is
// cleared before it goes back (its runs alias exposed blocks); one longer
// than maxPooledRuns (1.5 MiB of slice headers) is left to the collector.
var runsPool = sync.Pool{New: func() any { return new(net.Buffers) }}

const maxPooledRuns = 64 << 10

// putRuns returns rp to runsPool with runs, the list last built on its
// backing array. The array is kept apart from *rp because a vectored write
// consumes *rp down to length and capacity 0.
func putRuns(rp *net.Buffers, runs net.Buffers) {
	if clear(runs[:cap(runs)]); cap(runs) <= maxPooledRuns {
		*rp = runs[:0]
		runsPool.Put(rp)
	}
}

// marshalFrameInto encodes a full frame — length prefix plus body — onto
// dst and returns it as head; a payload above maxInlineBody is not copied
// but returned as tail, to be written right behind head (writeFrame).
func marshalFrameInto(dst []byte, fr *frame) (head, tail []byte, err error) {
	head, send, err := appendFrameHead(dst, fr, len(fr.Payload))
	if err != nil {
		return nil, nil, err
	}
	if tail = fr.Payload[:send]; len(fr.Payload) <= maxInlineBody {
		head, tail = append(head, tail...), nil
	}
	return head, tail, nil
}

// appendFrameHead encodes the length prefix of fr and its body up to the
// payload, for a payload of n bytes written behind it, onto dst, and
// returns how many of those n bytes to send. The string sections are
// bounded by their u16 length prefix; oversized ones are a caller bug
// surfaced as an error rather than silent truncation. Two seeded wire
// defects live here, compiled out of normal builds: a one-byte body
// truncation (one payload byte fewer to send, or, without a payload, a
// shorter head) and an InterApp<->Control meter-class swap.
func appendFrameHead(dst []byte, fr *frame, n int) (head []byte, send int, err error) {
	for _, s := range []string{fr.Name, fr.Phase, fr.Err} {
		if len(s) > 0xFFFF {
			return nil, 0, fmt.Errorf("tcpnet: string section of %d bytes exceeds wire limit", len(s))
		}
	}
	if fr.Op == 0 || fr.Op >= opMax {
		return nil, 0, fmt.Errorf("tcpnet: invalid op %d", fr.Op)
	}
	if fr.Kind >= payloadKindMax {
		return nil, 0, fmt.Errorf("tcpnet: invalid payload kind %d", fr.Kind)
	}
	hdr := *fr
	if mutate.Enabled(mutate.TCPMeterClass) && hdr.Op != opHello {
		switch cluster.Class(hdr.MeterClass) {
		case cluster.InterApp:
			hdr.MeterClass = uint8(cluster.Control)
		case cluster.Control:
			hdr.MeterClass = uint8(cluster.InterApp)
		}
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	head, send = appendFrameHeader(dst, &hdr, n), n
	if mutate.Enabled(mutate.TCPTruncFrame) && hdr.Op != opHello {
		// The length prefix is computed over the already-truncated body, so
		// the peer's strict decoder fails fast instead of blocking on a
		// byte that never comes.
		if send > 0 {
			send--
		} else {
			head = head[:len(head)-1]
		}
	}
	binary.BigEndian.PutUint32(head[start:start+4], uint32(len(head)-start-4+send))
	return head, send, nil
}

// decodeFixedHeader decodes the fixed part of a frame body.
func decodeFixedHeader(hdr []byte) (*frame, error) {
	fr := &frame{
		Op:         hdr[0],
		Status:     hdr[1],
		MeterClass: hdr[2],
		Kind:       hdr[3],
	}
	if fr.Op == 0 || fr.Op >= opMax {
		return nil, fmt.Errorf("tcpnet: invalid op %d", fr.Op)
	}
	if fr.MeterClass > uint8(cluster.Control) {
		return nil, fmt.Errorf("tcpnet: invalid meter class %d", fr.MeterClass)
	}
	if fr.Kind >= payloadKindMax {
		return nil, fmt.Errorf("tcpnet: invalid payload kind %d", fr.Kind)
	}
	fr.Src = int32(binary.BigEndian.Uint32(hdr[4:]))
	fr.Dst = int32(binary.BigEndian.Uint32(hdr[8:]))
	fr.DstApp = int32(binary.BigEndian.Uint32(hdr[12:]))
	fr.Tag = binary.BigEndian.Uint64(hdr[16:])
	fr.Version = int64(binary.BigEndian.Uint64(hdr[24:]))
	fr.Bytes = int64(binary.BigEndian.Uint64(hdr[32:]))
	fr.Bytes2 = int64(binary.BigEndian.Uint64(hdr[40:]))
	fr.Span = binary.BigEndian.Uint64(hdr[48:])
	return fr, nil
}

// decodeSections decodes what follows the fixed header — the three strings
// and the payload — into fr. The strings are copied; Payload aliases rest.
func decodeSections(fr *frame, rest []byte) error {
	for _, dst := range []*string{&fr.Name, &fr.Phase, &fr.Err} {
		if len(rest) < 2 {
			return errShortFrame
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return errShortFrame
		}
		*dst = string(rest[:n])
		rest = rest[n:]
	}
	if len(rest) < 4 {
		return errShortFrame
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < n {
		return errShortFrame
	}
	if len(rest) != n {
		return errTrailingData
	}
	if n > 0 {
		fr.Payload = rest
	}
	return nil
}

// buffersWriter is implemented by writers that can send several buffers
// in one vectored write while keeping their own accounting (countingConn).
type buffersWriter interface {
	writeBuffers(*net.Buffers) (int64, error)
}

// writeBuffers writes every buffer of bufs, in order, as one operation and
// consumes bufs: one writev on a TCP connection (Go splits a list longer
// than 1,024 buffers into several), so no buffer is copied behind another.
func writeBuffers(w io.Writer, bufs *net.Buffers) error {
	if bw, ok := w.(buffersWriter); ok {
		_, err := bw.writeBuffers(bufs)
		return err
	}
	_, err := bufs.WriteTo(w)
	return err
}

// writeFrame marshals one frame through a pooled encode buffer and writes
// it. A large payload leaves straight from the caller's slice, one
// vectored write behind its header: never copied, and the header never in
// a packet of its own.
func writeFrame(w io.Writer, fr *frame) error {
	bp := getBuf()
	defer putBuf(bp)
	head, tail, err := marshalFrameInto((*bp)[:0], fr)
	if err != nil {
		return err
	}
	if *bp = head[:0]; len(tail) == 0 {
		_, err = w.Write(head)
	} else {
		err = writeBuffers(w, &net.Buffers{head, tail})
	}
	return err
}

// readFrame reads one length-prefixed frame, bounding the body at maxFrame.
// r is a connection's read buffer (readBufSize), so a frame that fits it
// costs one read from the socket. The body past the fixed header gets an
// allocation of its own, which Payload may alias for as long as it likes.
func readFrame(r io.Reader) (*frame, error) {
	fr, n, err := readFixedHeader(r)
	if err != nil {
		return nil, err
	}
	return fr, readSections(r, fr, n)
}

// readFixedHeader reads a frame's length prefix and fixed header and
// returns the frame and the length of the sections behind the header.
func readFixedHeader(r io.Reader) (*frame, int, error) {
	var fixed [4 + fixedHeaderLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(fixed[:4]))
	if n > maxFrame {
		return nil, 0, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if n < fixedHeaderLen {
		return nil, 0, errShortFrame
	}
	fr, err := decodeFixedHeader(fixed[4:])
	return fr, n - fixedHeaderLen, err
}

// readSections reads the n bytes of fr's sections into an allocation of
// their own and decodes them.
func readSections(r io.Reader, fr *frame, n int) error {
	rest := make([]byte, n)
	if _, err := io.ReadFull(r, rest); err != nil {
		return err
	}
	return decodeSections(fr, rest)
}

// Scatter-gather read codec. An opReadMulti request frame carries the
// reader in Src, the owning peer's first core in Dst, and its Payload
// encodes the spec list:
//
//	u32  count
//	per spec:
//	  i32        owner core
//	  u16+bytes  buffer name
//	  i64        version
//	  i64        metered bytes
//	  box        the requested sub-box (geometry.AppendBox)
//
// The response is an opResp header frame whose Bytes field is the segment
// count, followed by count raw segments outside frame framing:
//
//	u8   status (statusOK, or an error status with the body carrying
//	     the error text instead of cell bytes)
//	u32  index  (must equal the segment's position in the stream)
//	u32  length
//	     body: big-endian float64 cell bits of the owner-clipped sub-box
//	     in row-major order (zero length for an empty intersection)
const segHeaderLen = 1 + 4 + 4

// appendReadSpecs encodes the spec list onto dst.
func appendReadSpecs(dst []byte, specs []transport.ReadSpec) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(specs)))
	for _, spec := range specs {
		if len(spec.Key.Name) > 0xFFFF {
			return nil, fmt.Errorf("tcpnet: buffer name of %d bytes exceeds wire limit", len(spec.Key.Name))
		}
		// A box overlaps itself unless one of its dimensions is empty.
		if dim := spec.Sub.Dim(); dim == 0 || dim > 0xFF || !spec.Sub.Overlaps(spec.Sub) {
			return nil, fmt.Errorf("tcpnet: sub-box of rank %d is empty or outside the wire range 1..255", dim)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(spec.Owner))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(spec.Key.Name)))
		dst = append(dst, spec.Key.Name...)
		dst = binary.BigEndian.AppendUint64(dst, uint64(spec.Key.Version))
		dst = binary.BigEndian.AppendUint64(dst, uint64(spec.Bytes))
		dst = geometry.AppendBox(dst, spec.Sub)
	}
	return dst, nil
}

// decodeReadSpecs strictly decodes a spec list: every spec fully present,
// its metered size not negative, no trailing bytes.
func decodeReadSpecs(body []byte) ([]transport.ReadSpec, error) {
	if len(body) < 4 {
		return nil, errShortFrame
	}
	count := int(binary.BigEndian.Uint32(body))
	rest := body[4:]
	// Every spec occupies at least its fixed fields (owner, name length,
	// version, bytes) and a rank-1 box, so a count the body cannot possibly
	// hold is a short frame — rejected before it sizes an allocation.
	const minSpecLen = 4 + 2 + 8 + 8 + 1 + 16
	if count > len(rest)/minSpecLen {
		return nil, errShortFrame
	}
	specs := make([]transport.ReadSpec, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 4+2 {
			return nil, errShortFrame
		}
		var spec transport.ReadSpec
		spec.Owner = cluster.CoreID(int32(binary.BigEndian.Uint32(rest)))
		n := int(binary.BigEndian.Uint16(rest[4:]))
		rest = rest[6:]
		if len(rest) < n+8+8 {
			return nil, errShortFrame
		}
		spec.Key.Name = string(rest[:n])
		rest = rest[n:]
		spec.Key.Version = int(int64(binary.BigEndian.Uint64(rest)))
		spec.Bytes = int64(binary.BigEndian.Uint64(rest[8:]))
		if spec.Bytes < 0 {
			return nil, fmt.Errorf("tcpnet: read spec %d: negative metered size %d", i, spec.Bytes)
		}
		var err error
		if spec.Sub, rest, err = geometry.ReadBox(rest[16:]); err != nil {
			return nil, fmt.Errorf("tcpnet: read spec %d: %w", i, err)
		}
		specs = append(specs, spec)
	}
	if len(rest) != 0 {
		return nil, errTrailingData
	}
	return specs, nil
}

// appendSegmentHeader appends the header of one raw response segment to dst.
func appendSegmentHeader(dst []byte, status uint8, index, length int) []byte {
	dst = append(dst, status)
	dst = binary.BigEndian.AppendUint32(dst, uint32(index))
	return binary.BigEndian.AppendUint32(dst, uint32(length))
}

// readSegmentHeader reads one segment header, bounding the body length.
func readSegmentHeader(r io.Reader) (status uint8, index int, length int, err error) {
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	status = hdr[0]
	index = int(binary.BigEndian.Uint32(hdr[1:]))
	length = int(binary.BigEndian.Uint32(hdr[5:]))
	if length > maxFrame {
		return 0, 0, 0, fmt.Errorf("tcpnet: segment of %d bytes exceeds limit %d", length, maxFrame)
	}
	return status, index, length, nil
}

// WireStats is a snapshot of wire-level counters, in two halves: a
// driver's are the bytes of its dialed connections, handshakes included,
// and the read request frames it issued; a server's are the segments it
// clipped and streamed.
type WireStats struct {
	BytesOut, BytesIn int64
	// ReadRequests is always 0: bench/tcp.go still reads it; a benchmark
	// PR may drop it.
	ReadRequests, ReadMultiRequests int64
	SegmentsServed                  int64
	SegmentBytesServed              int64
}

// Registry instruments mirroring the WireStats counters, each incremented
// beside its own: process-wide, they equal the WireStats of a process's one
// driver or server when observability is on from the start (codsrun and
// codsnode), so a node's shipped registry reconciles against its Wire.
var (
	obsWireBytesOut      = obs.C("tcpnet.bytes_out")
	obsWireBytesIn       = obs.C("tcpnet.bytes_in")
	obsWireReadMultiReqs = obs.C("tcpnet.readmulti.requests")
	obsWireSegments      = obs.C("tcpnet.segments.served")
	obsWireSegmentBytes  = obs.C("tcpnet.segments.bytes_served")
)

// NodeAccount is one process's recorded transfer accounting — the fabric's
// per-medium counters, its metrics snapshot, its obs registry and its
// server's wire counters, all a per-node report section reconciles — which
// a server ships in answer to opStats. The driver fills in Addr and Node,
// the peer it asked, and keeps it until the next MergeRemoteStats fan-out.
type NodeAccount struct {
	Addr             string
	Node             int
	ShmBytes, ShmOps int64
	NetBytes, NetOps int64
	Metrics          cluster.MetricsSnapshot
	Registry         obs.Snapshot
	Wire             WireStats
}
