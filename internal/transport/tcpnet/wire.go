// Package tcpnet is the real-network transport backend (DESIGN §5f): each
// simulated node is served by its own endpoint group over TCP sockets,
// with a length-prefixed binary wire protocol, per-peer connection caching
// behind a versioned handshake, and one I/O timeout. It moves bytes and
// retries nothing: a failed exchange is the caller's to retry. Operations
// are metered by the serving side through the fabric's Local* methods, so
// per-medium accounting reconciles with the in-process backend byte for
// byte.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/transport"
)

// Wire operations. opResp is the single response op; the request op a
// response answers is implied by the connection's strict request/response
// discipline. Every request is initiated by the driver, the process that
// runs the tasks: no op carries a peer address, so a serving process
// answers and never dials. What each request carries and how it is
// answered is its row of the op table (ops).
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

// Response statuses.
const (
	statusOK uint8 = iota
	statusErr
	statusClosed   // the target endpoint is closed (transport.ErrEndpointClosed)
	statusNotFound // Exposed of an absent buffer: not an error
	statusPatience // not exposed within the reader's patience (transport.ErrReadPatience)
)

// Handshake constants. helloMagic rides in the Tag field of the opHello
// frame; bumping wireVersion invalidates cached connections from older
// binaries at the handshake instead of corrupting mid-stream. A
// mismatched peer is rejected at the handshake (there is no per-op
// fallback — a driver must match its codsnode children), which is a clean
// fast failure instead of an old server hanging on a frame layout it
// cannot decode. CHANGES.md (Wire versions) lists what each version changed.
const (
	helloMagic  uint64 = 0x434F44534E455400 // "CODSNET\0"
	wireVersion uint8  = 15
)

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

// frame is the unit of the wire protocol: a 4-byte big-endian body length
// followed by a fixed header, three length-prefixed strings and the
// length-prefixed payload. Field use per op:
//
//	Kind         what Payload holds (payloadRaw, payloadGob, payloadBlock,
//	             payloadMsg)
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

// stagePool recycles the staging buffers block bytes pass through: the
// piece of a block being exposed that is encoded and written next
// (sender, at most exposeChunk and the frame header) and the segment a
// reader receives before scattering it. A buffer grows to the largest body
// it has held, so in steady state neither allocates. The frame body an
// exposed block arrives in is not staged: the owner keeps it as the block
// (transport.DecodeBlock), serves segments as runs of it (runsPool) and
// recycles it once withdrawn (bodies).
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

// runsPool recycles the run lists serveReadMulti writes segments from, so
// a warm serve allocates nothing per segment. A list is cleared before it
// goes back (its runs alias exposed blocks); one longer than maxPooledRuns
// (1.5 MiB of slice headers) is left to the collector.
var runsPool = sync.Pool{New: func() any { return new(net.Buffers) }}

const maxPooledRuns = 64 << 10

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

// decodeFrame strictly decodes one frame body: every declared section must
// be fully present and no bytes may remain. The returned frame's Payload
// aliases body.
func decodeFrame(body []byte) (*frame, error) {
	if len(body) < fixedHeaderLen {
		return nil, errShortFrame
	}
	fr, err := decodeFixedHeader(body[:fixedHeaderLen])
	if err != nil {
		return nil, err
	}
	return fr, decodeSections(fr, body[fixedHeaderLen:])
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
func readFrame(r io.Reader) (*frame, error) { return readFrameInto(r, nil) }

// readFrameInto is readFrame on a serving node: an expose's payload, the
// block its owner will keep, is read into a body the node's free list
// hands out (bodies.take), not into an allocation of the whole frame.
func readFrameInto(r io.Reader, pool *bodies) (*frame, error) {
	var fixed [4 + fixedHeaderLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fixed[:4]))
	if n > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if n < fixedHeaderLen {
		return nil, errShortFrame
	}
	fr, err := decodeFixedHeader(fixed[4:])
	if err != nil {
		return nil, err
	}
	if pool != nil && fr.Op == opExpose {
		return fr, readExposeSections(r, fr, n-fixedHeaderLen, pool)
	}
	rest := make([]byte, n-fixedHeaderLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, err
	}
	if err := decodeSections(fr, rest); err != nil {
		return nil, err
	}
	return fr, nil
}

// readExposeSections reads the rest sections of an expose frame — strings,
// then the payload — as decodeSections decodes them, the payload into a
// body from pool. The payload length is checked against the frame's before
// a body is taken.
func readExposeSections(r io.Reader, fr *frame, rest int, pool *bodies) error {
	bp := getBuf()
	defer putBuf(bp)
	field := func(n int) ([]byte, error) {
		if rest < n {
			return nil, errShortFrame
		}
		rest -= n
		*bp = slices.Grow((*bp)[:0], n)[:n]
		_, err := io.ReadFull(r, *bp)
		return *bp, err
	}
	for _, dst := range []*string{&fr.Name, &fr.Phase, &fr.Err} {
		b, err := field(2)
		if err != nil {
			return err
		}
		if b, err = field(int(binary.BigEndian.Uint16(b))); err != nil {
			return err
		}
		*dst = string(b)
	}
	b, err := field(4)
	if err != nil {
		return err
	}
	if n := int(binary.BigEndian.Uint32(b)); n > rest {
		return errShortFrame
	} else if n < rest {
		return errTrailingData
	}
	if rest == 0 {
		return nil
	}
	fr.Payload = pool.take(rest)
	_, err = io.ReadFull(r, fr.Payload)
	return err
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
