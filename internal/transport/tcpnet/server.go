package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport"
)

// Server is the serving half, the HybridDART node that holds exposed
// blocks: it answers the driver's requests on one node's endpoints, one
// goroutine per connection, through its own fabric's executing methods — so
// the process that moves the bytes meters them. A server dials nobody.
type Server struct {
	fabric   *transport.Fabric
	machine  *cluster.Machine
	node     cluster.NodeID
	listener net.Listener
	// timeout is ioTimeout but in tests of hung or stalled peers.
	timeout time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
	closed atomic.Bool

	// bodies keeps the expose bodies of this node's blocks.
	bodies *bodies

	stats struct{ segments, segmentBytes atomic.Int64 }

	// spanTracer emits a handler span for every operation that carries
	// trace context (frame.Span != 0) into spanSink, which the driver
	// drains through opSpans. Node k's span IDs start above (k+1)<<48, far
	// above the driver's own.
	spanTracer *obs.Tracer
	spanSink   spanSink

	shutdownOnce sync.Once
	shutdownCh   chan struct{}
}

// spanSink buffers the JSON Lines output of the remote-span tracer until
// a driver drains it. Only complete lines are drained: the tracer's
// bufio layer may flush mid-line while handler goroutines are still
// emitting, so the tail after the last newline stays buffered — a
// concurrent drain never ships a torn line.
type spanSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *spanSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *spanSink) drain() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := bytes.LastIndexByte(s.buf.Bytes(), '\n')
	if i < 0 {
		return nil
	}
	return bytes.Clone(s.buf.Next(i + 1))
}

// Serve serves node of f's machine on addr — the codsnode configuration.
// It learns no peer address: it answers for the cores it owns.
func Serve(f *transport.Fabric, node cluster.NodeID, addr string) (*Server, error) {
	if int(node) < 0 || int(node) >= f.Machine().NumNodes() {
		return nil, fmt.Errorf("tcpnet: node %d out of range", node)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listening for node %d: %w", node, err)
	}
	return serve(f, node, ln, ioTimeout), nil
}

// serve starts a server of node on ln under the I/O timeout given.
func serve(f *transport.Fabric, node cluster.NodeID, ln net.Listener, timeout time.Duration) *Server {
	s := &Server{fabric: f, machine: f.Machine(), node: node, listener: ln, timeout: timeout,
		conns: make(map[net.Conn]bool), bodies: newBodies(), shutdownCh: make(chan struct{})}
	s.spanTracer = obs.NewTracer(&s.spanSink)
	s.spanTracer.SetIDBase(uint64(node+1) << 48)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the address the server listens on.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Done is closed when a driver asks this server's process to shut down.
func (s *Server) Done() <-chan struct{} { return s.shutdownCh }

// WireStats returns the server's half of the wire counters: the segments
// it clipped and streamed.
func (s *Server) WireStats() WireStats {
	return WireStats{SegmentsServed: s.stats.segments.Load(), SegmentBytesServed: s.stats.segmentBytes.Load()}
}

// Close stops the listener, closes every served connection and waits for
// the accept loop; a goroutine parked in a deferred read is left to the
// owning endpoint's teardown (or the reader's patience).
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// acceptRetryPause spaces the retries of a failing Accept.
const acceptRetryPause = 10 * time.Millisecond

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.closed.Load() {
				return
			}
			// Anything else (EMFILE, ECONNABORTED) is transient: a live
			// process must not be left with a dead listener.
			fmt.Fprintf(os.Stderr, "tcpnet: accept on %s: %v; retrying\n", s.listener.Addr(), err)
			time.Sleep(acceptRetryPause)
			continue
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = true
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// serveConn drives one client connection: handshake, then a strict
// request/response loop, reading through the connection's buffer and
// writing to it directly, each request answered through its row of the op
// table (dispatch). A deferred read blocks this goroutine only — the
// client holds the connection out of its pool for the duration — and so
// does an RPC, whose handler runs inline here (transport.Fabric.Call).
func (s *Server) serveConn(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	r := bufio.NewReaderSize(c, readBufSize)
	hello, err := readFrame(r)
	if err != nil {
		return
	}
	if err := s.checkHello(hello); err != nil {
		_ = writeFrame(c, &frame{Op: opResp, Status: statusErr, Err: err.Error()})
		return
	}
	if err := writeFrame(c, &frame{Op: opResp, Status: statusOK}); err != nil {
		return
	}
	for {
		fr, err := readFrameInto(r, s.bodies, hello.Status == cellsLittleEndian)
		if err != nil || !s.dispatch(c, fr) {
			return
		}
	}
}

// checkHello validates a client's handshake against this server.
func (s *Server) checkHello(fr *frame) error {
	if fr.Op != opHello || fr.Tag != helloMagic {
		return fmt.Errorf("not a tcpnet hello")
	}
	if fr.Version != int64(wireVersion) {
		return fmt.Errorf("wire version %d, want %d", fr.Version, wireVersion)
	}
	if fr.Bytes != int64(s.machine.NumNodes()) || fr.Bytes2 != int64(s.machine.CoresPerNode()) {
		return fmt.Errorf("machine shape %dx%d, want %dx%d",
			fr.Bytes, fr.Bytes2, s.machine.NumNodes(), s.machine.CoresPerNode())
	}
	if fr.Dst != int32(s.node) {
		return fmt.Errorf("node %d is not served here", fr.Dst)
	}
	if fr.Status > cellsLittleEndian {
		return fmt.Errorf("cell order %d unknown", fr.Status)
	}
	return nil
}

// handlers binds each request row of ops to its work: handle returns the
// answer's payload; stream writes the answer and reports protocol sync.
var handlers = [opMax]struct {
	handle func(*Server, *frame) ([]byte, error)
	stream func(*Server, net.Conn, *frame) bool
}{
	opCall:      {handle: (*Server).serveCall},
	opExpose:    {handle: (*Server).serveExpose},
	opUnexpose:  {handle: (*Server).serveUnexpose},
	opExposed:   {handle: (*Server).serveExposed},
	opStats:     {handle: (*Server).serveStats},
	opSpans:     {handle: (*Server).serveSpans},
	opShutdown:  {handle: func(*Server, *frame) ([]byte, error) { return nil, nil }},
	opReadMulti: {stream: (*Server).serveReadMulti},
}

// dispatch answers one request through its row and its handler and reports
// whether the connection still serves. The row admits the request first: a
// request op, a payload of its kind (refused before any codec touches the
// bytes) and a target served here. A refused or failed request is answered
// with its status and error text; opShutdown's answer is the process's
// last: the connection closes and Done fires.
func (s *Server) dispatch(c net.Conn, fr *frame) bool {
	row, h := &ops[fr.Op], &handlers[fr.Op]
	var err error
	switch {
	case row.name == "":
		err = fmt.Errorf("unhandled op %d", fr.Op)
	case fr.Kind != row.req:
		err = fmt.Errorf("tcpnet: %s carries payload kind %d, want %d", row.name, fr.Kind, row.req)
	case row.target:
		err = s.checkTarget(fr.Dst)
	}
	if err == nil && h.stream != nil {
		return h.stream(s, c, fr)
	}
	resp := &frame{Op: opResp, Kind: row.resp}
	if err == nil {
		resp.Payload, err = h.handle(s, fr)
	}
	if err != nil {
		resp = &frame{Op: opResp, Status: statusOf(err)}
		if resp.Status != statusNotFound {
			resp.Err = err.Error()
		}
	}
	sent := s.reply(c, resp)
	if sent && fr.Op == opShutdown {
		s.shutdownOnce.Do(func() { close(s.shutdownCh) })
		return false
	}
	return sent
}

// statusOf is the status that carries err across the wire: the sentinels
// callers test for have codes of their own (remoteErr is the inverse).
func statusOf(err error) uint8 {
	switch {
	case errors.Is(err, transport.ErrEndpointClosed):
		return statusClosed
	case errors.Is(err, transport.ErrReadPatience):
		return statusPatience
	case err == errNotExposed:
		return statusNotFound
	case errors.Is(err, transport.ErrExposed):
		return statusExposed
	}
	return statusErr
}

// frameMeter is the Meter a request carries (meterFrame).
func frameMeter(fr *frame) transport.Meter {
	return transport.Meter{Phase: fr.Phase, Class: cluster.Class(fr.MeterClass), DstApp: int(fr.DstApp), Span: fr.Span}
}

// reply writes one answer frame under the write deadline and reports
// whether it left.
func (s *Server) reply(c net.Conn, resp *frame) bool {
	armWrite(c, s.timeout)
	return writeFrame(c, resp) == nil
}

// serveReadMulti executes one scatter-gather read: validate the batch,
// announce the segment count in an ordinary response frame, then clip
// each requested sub-box out of its exposed buffer — the runs of its bytes
// (transport.RegionClipper), no cell copied — and stream the segments,
// each metered through the fabric's Read on this side, the side moving the
// bytes. A segment pins the body of the block it is clipped from (bodies)
// from its Read until its bytes are copied or written. The response frame
// and every segment whose body fits maxInlineBody gather in one pooled
// buffer that leaves in one write — at the end, behind an error segment,
// or when the next segment would take it past maxPooledBuf; a larger
// segment flushes the buffer and leaves uncopied, its header and runs one
// vectored write. The return value reports whether the connection is
// still in protocol sync; a failure after the header frame is not (the
// client was promised segments), so the stream is aborted with an error
// segment and the connection dropped.
func (s *Server) serveReadMulti(c net.Conn, fr *frame) bool {
	headerFail := func(err error) bool {
		// A pre-stream failure is an ordinary request/response exchange;
		// the connection stays usable.
		return s.reply(c, &frame{Op: opResp, Status: statusOf(err), Err: err.Error()})
	}
	if err := s.checkCore(fr.Src); err != nil {
		return headerFail(err)
	}
	// The reader's patience bounds every segment's wait; this node has none
	// of its own.
	patience := time.Duration(fr.Tag)
	if patience < 0 {
		return headerFail(fmt.Errorf("read patience %#x is not a non-negative duration", fr.Tag))
	}
	specs, err := decodeReadSpecs(fr.Payload)
	if err != nil {
		return headerFail(err)
	}
	for _, spec := range specs {
		if err := s.checkTarget(int32(spec.Owner)); err != nil {
			return headerFail(err)
		}
	}
	if fr.Span != 0 {
		name := fmt.Sprintf("remote:readmulti:%d", len(specs))
		defer s.spanTracer.StartNode(obs.SpanID(fr.Span), name, fmt.Sprintf("node%d", s.node)).End()
	}
	count := len(specs)
	if mutate.Enabled(mutate.TCPSGDrop) && count > 1 {
		// Seeded defect: the batch swallows its last sub-box — announced
		// and streamed one segment short.
		count--
		specs = specs[:count]
	}
	out := getBuf()
	defer putBuf(out)
	pending, _, err := marshalFrameInto((*out)[:0], &frame{Op: opResp, Status: statusOK, Bytes: int64(count)})
	if err != nil {
		return false
	}
	flush := func() bool {
		if len(pending) == 0 {
			return true
		}
		armWrite(c, s.timeout)
		_, err := c.Write(pending)
		*out, pending = pending[:0], pending[:0]
		return err == nil
	}
	m := frameMeter(fr)
	reader := cluster.CoreID(fr.Src)
	// runs: a slot for the segment header, then the runs of the segment;
	// *rp is the copy of it a vectored write consumes.
	rp := runsPool.Get().(*net.Buffers)
	runs := (*rp)[:0]
	defer func() { putRuns(rp, runs) }()
	for i, spec := range specs {
		if mutate.Enabled(mutate.TCPSGReorder) && count >= 2 && i < 2 {
			// Seeded defect: the first two segments keep their indices but
			// exchange payloads — protocol-valid, wrong bytes in each slot.
			spec = specs[1-i]
		}
		var pinned *heldBody
		payload, err := s.fabric.Read(reader, spec.Owner, spec.Key, m, spec.Bytes, patience,
			func(block any) { pinned = s.bodies.pin(block) })
		if clipper, ok := payload.(transport.RegionClipper); ok && err == nil {
			runs, err = clipper.ClipRows(append(runs[:0], nil), spec.Sub)
		} else if err == nil {
			err = fmt.Errorf("tcpnet: exposed payload %T cannot clip regions", payload)
		}
		if err != nil {
			s.bodies.unpin(pinned)
			text := err.Error()
			pending = append(appendSegmentHeader(pending, statusOf(err), i, len(text)), text...)
			flush()
			return false
		}
		n := 0
		for _, run := range runs[1:] {
			n += len(run)
		}
		s.stats.segments.Add(1)
		s.stats.segmentBytes.Add(int64(n))
		obsWireSegments.Inc()
		obsWireSegmentBytes.Add(int64(n))
		if (n > maxInlineBody || len(pending)+segHeaderLen+n > maxPooledBuf) && !flush() {
			s.bodies.unpin(pinned)
			return false
		}
		pending = appendSegmentHeader(pending, statusOK, i, n)
		if n <= maxInlineBody {
			for _, run := range runs[1:] {
				pending = append(pending, run...)
			}
			s.bodies.unpin(pinned)
			continue
		}
		armWrite(c, s.timeout)
		runs[0] = pending
		*rp = runs
		err = writeBuffers(c, rp)
		s.bodies.unpin(pinned)
		if pending = pending[:0]; err != nil {
			return false
		}
	}
	return flush()
}

// serveCall runs an RPC's handler inline, under a handler span when the
// call carries trace context, parented under the requesting driver span
// and labelled with the serving node.
func (s *Server) serveCall(fr *frame) ([]byte, error) {
	if fr.Span != 0 {
		defer s.spanTracer.StartNode(obs.SpanID(fr.Span), "remote:call:"+fr.Name, fmt.Sprintf("node%d", s.node)).End()
	}
	if err := s.checkCore(fr.Src); err != nil {
		return nil, err
	}
	if fr.Bytes < 0 || fr.Bytes2 < 0 {
		return nil, fmt.Errorf("negative metered size %d/%d", fr.Bytes, fr.Bytes2)
	}
	req, err := transport.DecodePayload(fr.Payload)
	if err != nil {
		return nil, err
	}
	out, err := s.fabric.Call(cluster.CoreID(fr.Src), cluster.CoreID(fr.Dst), fr.Name, req, frameMeter(fr), fr.Bytes, fr.Bytes2)
	if err != nil {
		return nil, err
	}
	return transport.EncodePayload(out)
}

// serveExpose publishes the block an opExpose frame carries. The block
// keeps fr.Payload, a body from the free list (readFrameInto) that goes
// back to it when the block is withdrawn; a refused expose hands it back at
// once.
func (s *Server) serveExpose(fr *frame) ([]byte, error) {
	block, err := transport.DecodeBlock(fr.Payload)
	if err != nil {
		s.bodies.give(fr.Payload)
		return nil, err
	}
	s.bodies.hold(block, fr.Payload)
	if err := s.fabric.Expose(cluster.CoreID(fr.Dst), transport.BufKey{Name: fr.Name, Version: int(fr.Version)}, block); err != nil {
		s.bodies.release(block)
		return nil, err
	}
	return nil, nil
}

func (s *Server) serveUnexpose(fr *frame) ([]byte, error) {
	s.bodies.release(s.fabric.Withdraw(cluster.CoreID(fr.Dst), transport.BufKey{Name: fr.Name, Version: int(fr.Version)}))
	return nil, nil
}

func (s *Server) serveExposed(fr *frame) ([]byte, error) {
	if !s.fabric.Exposed(cluster.CoreID(fr.Dst), transport.BufKey{Name: fr.Name, Version: int(fr.Version)}) {
		return nil, errNotExposed
	}
	return nil, nil
}

// serveStats answers with this process's NodeAccount, in gob.
func (s *Server) serveStats(*frame) ([]byte, error) {
	acct := NodeAccount{
		ShmBytes: s.fabric.MediumBytes(cluster.SharedMemory),
		ShmOps:   s.fabric.MediumOps(cluster.SharedMemory),
		NetBytes: s.fabric.MediumBytes(cluster.Network),
		NetOps:   s.fabric.MediumOps(cluster.Network),
		Metrics:  s.machine.Metrics().Snapshot(),
		Registry: obs.Default.Snapshot(),
		Wire:     s.WireStats(),
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(acct)
	return buf.Bytes(), err
}

// serveSpans flushes and answers with the buffered remote span lines,
// clearing the buffer (nil when nothing has been emitted).
func (s *Server) serveSpans(*frame) ([]byte, error) {
	_ = s.spanTracer.Flush()
	return s.spanSink.drain(), nil
}

// checkCore validates a wire-supplied core id.
func (s *Server) checkCore(c int32) error {
	if int(c) < 0 || int(c) >= s.machine.TotalCores() {
		return fmt.Errorf("core %d out of range", c)
	}
	return nil
}

// checkTarget validates that the target core of an operation is served by
// this process.
func (s *Server) checkTarget(c int32) error {
	if err := s.checkCore(c); err != nil {
		return err
	}
	if s.machine.NodeOf(cluster.CoreID(c)) != s.node {
		return fmt.Errorf("core %d is not served here", c)
	}
	return nil
}

// Registry instruments of the expose bodies a serving node reads blocks
// into: bodies allocated because the free list held none of the size, and
// bodies taken from it. They ride opStats like every instrument, so a
// driver's report shows per node whether its block memory stopped growing.
var (
	obsBodiesFresh  = obs.C("tcpnet.bodies.fresh")
	obsBodiesReused = obs.C("tcpnet.bodies.reused")
)

// maxFreeBodies bounds the bytes a node's free list holds (64 MiB); a body
// withdrawn while the list is full is left to the collector.
const maxFreeBodies = 64 << 20

// bodies is a serving node's store of expose bodies. An exposed block is
// kept as the very body it arrived in — cods' wireBlock aliases its cell
// section, and every segment served from it is runs of it — so a node that
// is sent a block a step would otherwise allocate and zero one body a step
// and leave each withdrawn one to the collector. Instead a withdrawn body
// goes on a free list, and the next expose of a block of the same wire size
// is read into it. A body is reused only once nothing can read it: a served
// segment pins the block it is clipped from from its Read until its
// bytes are written (serveReadMulti), and a block withdrawn while pinned is
// recycled by its last unpin.
type bodies struct {
	mu sync.Mutex
	// held maps each block this node decoded from an expose body, exposed
	// or still to be, to that body.
	held      map[any]*heldBody
	free      map[int][][]byte // withdrawn bodies by length
	freeBytes int
}

// heldBody is the body of one block and the segments still being served
// from it.
type heldBody struct {
	body      []byte
	pins      int
	withdrawn bool
}

func newBodies() *bodies {
	return &bodies{held: make(map[any]*heldBody), free: make(map[int][][]byte)}
}

// take returns a body of n bytes: a withdrawn one of that length, or a
// fresh allocation when the free list holds none.
func (p *bodies) take(n int) []byte {
	p.mu.Lock()
	if list := p.free[n]; len(list) > 0 {
		body := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[n] = list[:len(list)-1]
		p.freeBytes -= n
		p.mu.Unlock()
		obsBodiesReused.Inc()
		return body
	}
	p.mu.Unlock()
	obsBodiesFresh.Inc()
	return make([]byte, n)
}

// give puts a body nothing references on the free list.
func (p *bodies) give(body []byte) {
	p.mu.Lock()
	p.recycle(body)
	p.mu.Unlock()
}

// recycle is give with p.mu held.
func (p *bodies) recycle(body []byte) {
	if len(body) == 0 || p.freeBytes+len(body) > maxFreeBodies {
		return
	}
	p.free[len(body)] = append(p.free[len(body)], body)
	p.freeBytes += len(body)
}

// hold records that block was decoded from body. It runs before the block
// is exposed, so a read can never find a block whose body is not held.
func (p *bodies) hold(block any, body []byte) {
	p.mu.Lock()
	p.held[block] = &heldBody{body: body}
	p.mu.Unlock()
}

// release is the end of a held block: refused by the fabric, or withdrawn
// from it. Its body is recycled at once unless a segment served from it is
// still being written; then the last unpin recycles it. A block this node
// holds no body for (nil, or exposed on its fabric directly) is ignored.
func (p *bodies) release(block any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.held[block]
	if h == nil {
		return
	}
	delete(p.held, block)
	if h.pins > 0 {
		h.withdrawn = true
		return
	}
	p.recycle(h.body)
}

// pin marks block's body as read from until unpin. It runs under the
// fabric's export lock, while block is still exposed (transport.Fabric.
// Read), so a withdrawal cannot slip between the read and the pin.
// It returns nil for a block whose body this node does not hold.
func (p *bodies) pin(block any) *heldBody {
	p.mu.Lock()
	h := p.held[block]
	if h != nil {
		h.pins++
	}
	p.mu.Unlock()
	return h
}

// unpin ends a pin; nil is a no-op.
func (p *bodies) unpin(h *heldBody) {
	if h == nil {
		return
	}
	p.mu.Lock()
	if h.pins--; h.pins == 0 && h.withdrawn {
		p.recycle(h.body)
	}
	p.mu.Unlock()
}

// readFrameInto is readFrame on a serving node: an expose's payload, the
// block its owner will keep, is read into a body the node's free list
// hands out (bodies.take), not into an allocation of the whole frame, and
// its cells are swapped to big-endian when the sender's are not.
func readFrameInto(r io.Reader, pool *bodies, swap bool) (*frame, error) {
	fr, n, err := readFixedHeader(r)
	if err != nil {
		return nil, err
	}
	if fr.Op == opExpose {
		return fr, readExposeSections(r, fr, n, pool, swap)
	}
	return fr, readSections(r, fr, n)
}

// readExposeSections reads the rest sections of an expose frame — strings,
// then the payload — as decodeSections decodes them, the payload into a
// body from pool. The payload length is checked against the frame's before
// a body is taken. A block's header is a geometry box, its rank and 16
// bytes a dimension, so every cell starts one byte past a multiple of
// CellBytes; the payload is read in exposeChunk pieces that end there too,
// and with swap set each piece's cells are swapped while it is in cache.
func readExposeSections(r io.Reader, fr *frame, rest int, pool *bodies, swap bool) error {
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
	for at, end := 0, 0; at < rest; at = end {
		end = min(rest, 1+(at/exposeChunk+1)*exposeChunk)
		if _, err := io.ReadFull(r, fr.Payload[at:end]); err != nil {
			return err
		}
		if cells := max(at, 1+16*int(fr.Payload[0])); swap && cells < end {
			toBigEndian(fr.Payload[cells:end])
		}
	}
	return nil
}

// toBigEndian converts little-endian cells to big-endian in place, four a
// step; a torn last cell is left for the block decoder to refuse.
func toBigEndian(b []byte) {
	for ; len(b) >= 4*transport.CellBytes; b = b[4*transport.CellBytes:] {
		binary.BigEndian.PutUint64(b[0:], binary.LittleEndian.Uint64(b[0:]))
		binary.BigEndian.PutUint64(b[8:], binary.LittleEndian.Uint64(b[8:]))
		binary.BigEndian.PutUint64(b[16:], binary.LittleEndian.Uint64(b[16:]))
		binary.BigEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:]))
	}
	for ; len(b) >= transport.CellBytes; b = b[transport.CellBytes:] {
		binary.BigEndian.PutUint64(b, binary.LittleEndian.Uint64(b))
	}
}
