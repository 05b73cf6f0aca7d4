// Package tcpnet is the real-network transport backend (DESIGN §5f): each
// simulated node is served by its own endpoint group over TCP sockets,
// with a length-prefixed binary wire protocol, per-peer connection caching
// behind a versioned handshake, and IO deadlines derived from the shared
// internal/retry policies. Operations are metered by the serving side
// through the fabric's Local* methods, so per-medium accounting reconciles
// with the in-process backend byte for byte.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/transport"
)

// Wire operations. opResp is the single response op; the request op a
// response answers is implied by the connection's strict request/response
// discipline.
const (
	opHello uint8 = iota + 1
	opResp
	opSend
	opRecv
	opCall
	opExpose
	opUnexpose
	opExposed
	opPeers
	opStats
	opShutdown
	opReadMulti // batched scatter-gather read: one frame out, segment stream back
	opSpans     // drain the node's buffered remote span events (JSON Lines)
	opJoin      // membership: node Dst now serves at Name with incarnation Tag
	opLease     // membership: lease probe/renewal against incarnation Tag
	opMax       // one past the last valid op
)

// Response statuses.
const (
	statusOK uint8 = iota
	statusErr
	statusClosed   // the target endpoint is closed (transport.ErrEndpointClosed)
	statusNotFound // Exposed/Unexpose of an absent buffer: not an error
)

// Handshake constants. helloMagic rides in the Tag field of the opHello
// frame; bumping wireVersion invalidates cached connections from older
// binaries at the handshake instead of corrupting mid-stream. A
// mismatched peer is rejected at the handshake (there is no per-op
// fallback — a driver must match its codsnode children), which is a clean
// fast failure instead of an old server hanging on a frame layout it
// cannot decode. DESIGN §5f lists what each version changed.
const (
	helloMagic  uint64 = 0x434F44534E455400 // "CODSNET\0"
	wireVersion uint8  = 7
)

// maxFrameDefault bounds a frame body (64 MiB) so a corrupted length
// prefix cannot make a reader allocate unboundedly.
const maxFrameDefault = 64 << 20

// frame is the unit of the wire protocol: a 4-byte big-endian body length
// followed by a fixed header and three length-prefixed variable sections.
// Field use per op:
//
//	Src/Dst      initiating and target core (Dst also the owner for
//	             buffer ops, the node for hello/join/lease); Src is -1
//	             for AnySource receives
//	Tag          message tag (send/recv), helloMagic (hello request),
//	             incarnation (join, lease, hello and lease responses)
//	Version      BufKey version (expose/...), wire version (hello)
//	Bytes/Bytes2 metered sizes: req/resp (call), machine shape
//	             nodes/cores (hello); Bytes is the segment count in a
//	             readmulti response
//	MeterClass   cluster.Class of the carried Meter
//	DstApp       Meter.DstApp
//	Span         requesting-side span id (Meter.Span), 0 = no span;
//	             trace context only, never metered; the incarnation the
//	             client expects (hello request)
//	Name         BufKey name, RPC service name, or peer address (join)
//	Phase        Meter.Phase
//	Err          error text (opResp with statusErr/statusClosed)
//	Payload      message bytes, encoded RPC payload, or exposed buffer
type frame struct {
	Op         uint8
	Status     uint8
	MeterClass uint8
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
const fixedHeaderLen = 3 + 3*4 + 8 + 3*8 + 8

// errShortFrame rejects bodies that end before their declared content;
// errTrailingData rejects bodies that continue past it. Both make the
// decoder strict: a frame is valid only when every byte is accounted for.
var (
	errShortFrame   = errors.New("tcpnet: short frame")
	errTrailingData = errors.New("tcpnet: trailing data after frame")
)

// appendFrame encodes fr's body (without the length prefix) onto dst.
func appendFrame(dst []byte, fr *frame) []byte {
	dst = append(dst, fr.Op, fr.Status, fr.MeterClass)
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
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(fr.Payload)))
	dst = append(dst, fr.Payload...)
	return dst
}

// bufPool recycles the per-frame encode buffers, the small readFrame body
// buffers and the segment staging buffers of the scatter-gather path.
// Oversized buffers are not returned, so one huge frame cannot pin its
// allocation in the pool forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf bounds the capacity of a buffer the pool will keep (64
// KiB): typical frames — control RPCs, clipped segments, spec lists — fit
// comfortably; exposed-block payloads above it take the allocate path.
const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// grownBuf returns a length-n slice backed by *bp, growing the buffer
// when its capacity is short.
func grownBuf(bp *[]byte, n int) []byte {
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return *bp
}

// marshalFrameInto encodes a full frame — length prefix plus body — onto
// dst. The string sections are bounded by their u16 length prefix;
// oversized ones are a caller bug surfaced as an error rather than silent
// truncation. Two seeded wire defects live here, compiled out of normal
// builds: a one-byte body truncation and an InterApp<->Control
// meter-class swap.
func marshalFrameInto(dst []byte, fr *frame) ([]byte, error) {
	for _, s := range []string{fr.Name, fr.Phase, fr.Err} {
		if len(s) > 0xFFFF {
			return nil, fmt.Errorf("tcpnet: string section of %d bytes exceeds wire limit", len(s))
		}
	}
	if fr.Op == 0 || fr.Op >= opMax {
		return nil, fmt.Errorf("tcpnet: invalid op %d", fr.Op)
	}
	send := *fr
	if mutate.Enabled(mutate.TCPMeterClass) && send.Op != opHello {
		switch cluster.Class(send.MeterClass) {
		case cluster.InterApp:
			send.MeterClass = uint8(cluster.Control)
		case cluster.Control:
			send.MeterClass = uint8(cluster.InterApp)
		}
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	body := appendFrame(dst, &send)
	if mutate.Enabled(mutate.TCPTruncFrame) && send.Op != opHello {
		// The length prefix is computed over the already-truncated body, so
		// the peer's strict decoder fails fast instead of blocking on a
		// byte that never comes.
		body = body[:len(body)-1]
	}
	binary.BigEndian.PutUint32(body[start:start+4], uint32(len(body)-start-4))
	return body, nil
}

// marshalFrame is marshalFrameInto onto a fresh buffer (tests and seed
// corpora; the hot write path uses the pooled writeFrame).
func marshalFrame(fr *frame) ([]byte, error) { return marshalFrameInto(nil, fr) }

// decodeFrame strictly decodes one frame body: every declared section must
// be fully present and no bytes may remain.
func decodeFrame(body []byte) (*frame, error) {
	if len(body) < fixedHeaderLen {
		return nil, errShortFrame
	}
	fr := &frame{
		Op:         body[0],
		Status:     body[1],
		MeterClass: body[2],
	}
	if fr.Op == 0 || fr.Op >= opMax {
		return nil, fmt.Errorf("tcpnet: invalid op %d", fr.Op)
	}
	if fr.MeterClass > uint8(cluster.Control) {
		return nil, fmt.Errorf("tcpnet: invalid meter class %d", fr.MeterClass)
	}
	fr.Src = int32(binary.BigEndian.Uint32(body[3:]))
	fr.Dst = int32(binary.BigEndian.Uint32(body[7:]))
	fr.DstApp = int32(binary.BigEndian.Uint32(body[11:]))
	fr.Tag = binary.BigEndian.Uint64(body[15:])
	fr.Version = int64(binary.BigEndian.Uint64(body[23:]))
	fr.Bytes = int64(binary.BigEndian.Uint64(body[31:]))
	fr.Bytes2 = int64(binary.BigEndian.Uint64(body[39:]))
	fr.Span = binary.BigEndian.Uint64(body[47:])
	rest := body[fixedHeaderLen:]
	for _, dst := range []*string{&fr.Name, &fr.Phase, &fr.Err} {
		if len(rest) < 2 {
			return nil, errShortFrame
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return nil, errShortFrame
		}
		*dst = string(rest[:n])
		rest = rest[n:]
	}
	if len(rest) < 4 {
		return nil, errShortFrame
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < n {
		return nil, errShortFrame
	}
	if n > 0 {
		fr.Payload = append([]byte(nil), rest[:n]...)
	}
	if len(rest) != n {
		return nil, errTrailingData
	}
	return fr, nil
}

// writeFrame marshals and writes one frame through a pooled encode buffer.
func writeFrame(w io.Writer, fr *frame) error {
	bp := getBuf()
	buf, err := marshalFrameInto((*bp)[:0], fr)
	if err != nil {
		putBuf(bp)
		return err
	}
	_, werr := w.Write(buf)
	*bp = buf[:0]
	putBuf(bp)
	return werr
}

// readFrame reads one length-prefixed frame, bounding the body at max.
// Small bodies land in a pooled buffer: decodeFrame copies every variable
// section (strings and Payload) out of the body, so the buffer is free for
// reuse the moment decoding returns.
func readFrame(r io.Reader, max int) (*frame, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(prefix[:]))
	if max <= 0 {
		max = maxFrameDefault
	}
	if n > max {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit %d", n, max)
	}
	var body []byte
	if n <= maxPooledBuf {
		bp := getBuf()
		defer putBuf(bp)
		body = grownBuf(bp, n)
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeFrame(body)
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
//	  u8         dim
//	  per dim:   i64 min, i64 max   (the requested sub-box)
//
// The response is an opResp header frame whose Bytes field is the segment
// count, followed by count raw segments outside frame framing:
//
//	u8   status (statusOK, or statusErr/statusClosed with the body
//	     carrying the error text instead of cell bytes)
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
		if spec.Sub.Dim() > 0xFF {
			return nil, fmt.Errorf("tcpnet: sub-box rank %d exceeds wire limit", spec.Sub.Dim())
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(spec.Owner))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(spec.Key.Name)))
		dst = append(dst, spec.Key.Name...)
		dst = binary.BigEndian.AppendUint64(dst, uint64(spec.Key.Version))
		dst = binary.BigEndian.AppendUint64(dst, uint64(spec.Bytes))
		dst = append(dst, uint8(spec.Sub.Dim()))
		for d := 0; d < spec.Sub.Dim(); d++ {
			dst = binary.BigEndian.AppendUint64(dst, uint64(spec.Sub.Min[d]))
			dst = binary.BigEndian.AppendUint64(dst, uint64(spec.Sub.Max[d]))
		}
	}
	return dst, nil
}

// decodeReadSpecs strictly decodes a spec list: every spec fully present,
// no trailing bytes.
func decodeReadSpecs(body []byte) ([]transport.ReadSpec, error) {
	if len(body) < 4 {
		return nil, errShortFrame
	}
	count := int(binary.BigEndian.Uint32(body))
	rest := body[4:]
	// Every spec occupies at least its fixed fields (owner, name length,
	// version, bytes, dim), so a count the body cannot possibly hold is a
	// short frame — rejected before it sizes an allocation.
	const minSpecLen = 4 + 2 + 8 + 8 + 1
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
		if len(rest) < n+8+8+1 {
			return nil, errShortFrame
		}
		spec.Key.Name = string(rest[:n])
		rest = rest[n:]
		spec.Key.Version = int(int64(binary.BigEndian.Uint64(rest)))
		spec.Bytes = int64(binary.BigEndian.Uint64(rest[8:]))
		dim := int(rest[16])
		rest = rest[17:]
		if len(rest) < dim*16 {
			return nil, errShortFrame
		}
		spec.Sub = geometry.BBox{Min: make([]int, dim), Max: make([]int, dim)}
		for d := 0; d < dim; d++ {
			spec.Sub.Min[d] = int(int64(binary.BigEndian.Uint64(rest)))
			spec.Sub.Max[d] = int(int64(binary.BigEndian.Uint64(rest[8:])))
			rest = rest[16:]
		}
		specs = append(specs, spec)
	}
	if len(rest) != 0 {
		return nil, errTrailingData
	}
	return specs, nil
}

// writeSegment writes one raw segment (header plus body) of the
// scatter-gather response stream.
func writeSegment(w io.Writer, status uint8, index int, body []byte) error {
	bp := getBuf()
	defer putBuf(bp)
	buf := append(*bp, status)
	buf = binary.BigEndian.AppendUint32(buf, uint32(index))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	if len(body) <= maxPooledBuf {
		buf = append(buf, body...)
		_, err := w.Write(buf)
		*bp = buf[:0]
		return err
	}
	if _, err := w.Write(buf); err != nil {
		*bp = buf[:0]
		return err
	}
	*bp = buf[:0]
	_, err := w.Write(body)
	return err
}

// readSegmentHeader reads one segment header, bounding the body length.
func readSegmentHeader(r io.Reader, max int) (status uint8, index int, length int, err error) {
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	status = hdr[0]
	index = int(binary.BigEndian.Uint32(hdr[1:]))
	length = int(binary.BigEndian.Uint32(hdr[5:]))
	if max <= 0 {
		max = maxFrameDefault
	}
	if length > max {
		return 0, 0, 0, fmt.Errorf("tcpnet: segment of %d bytes exceeds limit %d", length, max)
	}
	return status, index, length, nil
}
