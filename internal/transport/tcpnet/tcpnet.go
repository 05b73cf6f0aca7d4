package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport"
)

// Registry instruments mirroring the backend's wire-level atomic counters:
// both are incremented at the same call sites, so a node's shipped
// registry snapshot reconciles exactly against its shipped WireStats (the
// same registry-vs-independent-source pattern transport.record uses for
// the per-medium counters). Process-wide like all obs instruments — equal
// to one backend's WireStats whenever the process runs a single backend
// with observability enabled from the start, which is exactly the codsrun
// driver and codsnode child configuration.
var (
	obsWireBytesOut      = obs.C("tcpnet.bytes_out")
	obsWireBytesIn       = obs.C("tcpnet.bytes_in")
	obsWireReadMultiReqs = obs.C("tcpnet.readmulti.requests")
	obsWireSegments      = obs.C("tcpnet.segments.served")
	obsWireSegmentBytes  = obs.C("tcpnet.segments.bytes_served")
)

// Config tunes a driver. A backend retries nothing: a dial is attempted
// once, and a failed exchange is the caller's to retry.
type Config struct {
	// ReadPatience is how long a ReadMulti this backend issues lets the
	// owner wait for a buffer that is not exposed yet: it travels in each
	// opReadMulti request, and the serving node fails a segment not
	// exposed within it with the transient transport.ErrReadPatience.
	// 0 (the default) waits forever, the classic in-situ deferred-read
	// semantics. A serving backend ignores it: the reader's value governs.
	ReadPatience time.Duration
}

// ioTimeout bounds a dial with its handshake, each frame write and each
// response read but a ReadMulti's segment stream, which ReadPatience bounds.
const ioTimeout = 5 * time.Second

// Backend is a transport.Backend moving operations between simulated
// nodes over TCP, in one of two roles: a serving backend (Serve) owns the
// endpoint state of one node and answers on its listener, and a driver
// (Connect) owns none and dials every node. Every accepted connection is
// served by its own goroutine, which executes operations against the
// fabric's Local* methods — metering therefore happens in the process that
// moves the bytes.
type Backend struct {
	fabric  *transport.Fabric
	machine *cluster.Machine
	cfg     Config
	// timeout is ioTimeout; tests shorten it (withIOTimeout).
	timeout time.Duration
	// node is the node a serving backend serves, with listener its
	// listener; a driver has node -1 and no listener.
	node     cluster.NodeID
	listener net.Listener

	mu          sync.Mutex
	addrs       map[cluster.NodeID]string
	pools       map[cluster.NodeID][]*peerConn
	serverConns map[net.Conn]bool

	wg     sync.WaitGroup
	closed atomic.Bool

	// bodies holds the expose bodies of the blocks a serving backend keeps
	// and recycles the withdrawn ones; a driver never uses it.
	bodies *bodies

	stats struct {
		bytesOut, bytesIn      atomic.Int64
		readMultiReqs          atomic.Int64
		segments, segmentBytes atomic.Int64
	}

	// spanTracer, on a serving node, emits a handler span for every
	// remote operation that carries trace context (frame.Span != 0) into
	// spanSink, to be drained by the driver through opSpans. A frame
	// carries a nonzero span only when the driver traces, so an untraced
	// run leaves the sink empty. Span IDs are namespaced per process —
	// node k's spans start above (k+1)<<48 — so merged traces never
	// collide with the driver's own IDs, which stay far below.
	spanTracer *obs.Tracer
	spanSink   spanSink

	// accounts is the per-peer accounting collected by the last
	// MergeRemoteStats fan-out, guarded by mu.
	accounts []NodeAccount

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
	b := s.buf.Bytes()
	i := bytes.LastIndexByte(b, '\n')
	if i < 0 {
		return nil
	}
	out := append([]byte(nil), b[:i+1]...)
	rest := append([]byte(nil), b[i+1:]...)
	s.buf.Reset()
	s.buf.Write(rest)
	return out
}

// WireStats is a snapshot of a backend's wire-level counters: the bytes
// written to and read from its dialed (client-side) connections,
// handshakes included; the one-sided read request frames it issued; and
// the scatter-gather segments its server side clipped and streamed. Each
// backend reports its own half: a driver's bytes and requests, a serving
// node's segments.
type WireStats struct {
	BytesOut, BytesIn int64
	// ReadRequests is always 0: bench/tcp.go still reads it; a benchmark
	// PR may drop it.
	ReadRequests, ReadMultiRequests int64
	SegmentsServed                  int64
	SegmentBytesServed              int64
}

// WireStats returns the current wire counter snapshot.
func (b *Backend) WireStats() WireStats {
	return WireStats{
		BytesOut:           b.stats.bytesOut.Load(),
		BytesIn:            b.stats.bytesIn.Load(),
		ReadMultiRequests:  b.stats.readMultiReqs.Load(),
		SegmentsServed:     b.stats.segments.Load(),
		SegmentBytesServed: b.stats.segmentBytes.Load(),
	}
}

// nodeLabel names the node that serves a target core, for span labels.
func (b *Backend) nodeLabel(target int32) string {
	return fmt.Sprintf("node%d", b.machine.NodeOf(cluster.CoreID(target)))
}

// DrainRemoteSpans collects the handler spans every peer process buffered
// and splices them into tr (the driver's trace file). Call it after the
// workflow completes and before flushing the trace.
func (b *Backend) DrainRemoteSpans(tr *obs.Tracer) error {
	return b.eachPeer(func(_ string, node cluster.NodeID) error {
		lines, err := b.exchange(node, &frame{Op: opSpans}, nil)
		if err == nil {
			tr.AppendRaw(lines)
		}
		return err
	})
}

// countingConn charges every read and write on a dialed connection to the
// backend's byte counters (and their registry mirrors).
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	obsWireBytesIn.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	obsWireBytesOut.Add(int64(n))
	return n, err
}

// writeBuffers implements buffersWriter: the vectored write goes to the
// wrapped connection (a writev on TCP) and is charged like any other.
func (c countingConn) writeBuffers(bufs *net.Buffers) (int64, error) {
	n, err := bufs.WriteTo(c.Conn)
	c.out.Add(n)
	obsWireBytesOut.Add(n)
	return n, err
}

// readBufSize is the read buffer every connection gets, on both ends: a
// control frame, or a response frame with the small segments gathered
// behind it, arrives in one read. A body larger than the buffer is read
// straight into its destination (bufio.Reader bypasses its buffer then).
const readBufSize = 4 << 10

// peerConn is a dialed connection and its read buffer: reads go through
// the buffer, writes (vectored ones included) straight to the counted
// connection. The buffer may read ahead of the exchange that filled it,
// so a connection it still holds bytes for is out of protocol sync and is
// never pooled (release).
type peerConn struct {
	countingConn
	r *bufio.Reader
}

func (c *peerConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func newBackend(f *transport.Fabric) *Backend {
	return &Backend{
		fabric:      f,
		machine:     f.Machine(),
		timeout:     ioTimeout,
		node:        -1,
		addrs:       make(map[cluster.NodeID]string),
		pools:       make(map[cluster.NodeID][]*peerConn),
		serverConns: make(map[net.Conn]bool),
		bodies:      newBodies(),
		shutdownCh:  make(chan struct{}),
	}
}

// Serve owns a single node of the machine, listening on addr — the
// codsnode child configuration. It learns no peer address: a serving
// process answers operations on the cores it owns and never dials.
func Serve(f *transport.Fabric, node cluster.NodeID, addr string) (*Backend, error) {
	return newBackend(f).listen(node, addr)
}

// listen starts b serving node on addr.
func (b *Backend) listen(node cluster.NodeID, addr string) (*Backend, error) {
	if int(node) < 0 || int(node) >= b.machine.NumNodes() {
		return nil, fmt.Errorf("tcpnet: node %d out of range", node)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listening for node %d: %w", node, err)
	}
	b.node, b.listener = node, ln
	b.spanTracer = obs.NewTracer(&b.spanSink)
	b.spanTracer.SetIDBase(uint64(node+1) << 48)
	b.wg.Add(1)
	go b.acceptLoop(ln)
	return b, nil
}

// Connect owns no node: every operation is remote — the driver
// configuration of codsrun -backend=tcp. peers maps each node to the
// address its codsnode child listens on.
func Connect(f *transport.Fabric, peers map[cluster.NodeID]string, cfg Config) (*Backend, error) {
	b := newBackend(f)
	b.cfg = cfg
	for node := 0; node < b.machine.NumNodes(); node++ {
		if _, ok := peers[cluster.NodeID(node)]; !ok {
			return nil, fmt.Errorf("tcpnet: no peer address for node %d", node)
		}
	}
	for node, addr := range peers {
		b.addrs[node] = addr
	}
	return b, nil
}

// UpdatePeer routes node to the replacement process listening on addr
// and closes the connections pooled to the process it replaces.
func (b *Backend) UpdatePeer(node cluster.NodeID, addr string) {
	b.mu.Lock()
	b.addrs[node] = addr
	stale := b.pools[node]
	delete(b.pools, node)
	b.mu.Unlock()
	for _, c := range stale {
		c.Close()
	}
}

// Addr returns the listen address of the node a serving backend serves
// ("" for a driver).
func (b *Backend) Addr() string {
	if b.listener == nil {
		return ""
	}
	return b.listener.Addr().String()
}

// Done is closed when a peer asks this backend's process to shut down.
func (b *Backend) Done() <-chan struct{} { return b.shutdownCh }

// errHandshake marks a peer that answered but refused the handshake —
// wrong wire version or machine shape. It is terminal.
var errHandshake = errors.New("tcpnet: handshake rejected")

// dial connects to a node's server and completes the versioned handshake,
// once: a failure is the exchange's, and the layer above decides whether
// to try again.
func (b *Backend) dial(node cluster.NodeID) (*peerConn, error) {
	b.mu.Lock()
	addr := b.addrs[node]
	b.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("tcpnet: no address for node %d", node)
	}
	raw, err := net.DialTimeout("tcp", addr, b.timeout)
	if err == nil {
		c := &peerConn{countingConn: countingConn{Conn: raw, in: &b.stats.bytesIn, out: &b.stats.bytesOut}}
		c.r = bufio.NewReaderSize(c.countingConn, readBufSize)
		if err = b.handshake(c, node); err == nil {
			return c, nil
		}
		c.Close()
	}
	return nil, fmt.Errorf("tcpnet: dialing node %d at %s: %w", node, addr, lost(err))
}

// lost marks err transient when the connection failed under it — refused,
// reset, closed or past its deadline: another connection can succeed.
// Every other error of an exchange is terminal.
func lost(err error) error {
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return transport.Transient(err)
	}
	return err
}

// handshake announces the wire version and machine shape and waits for
// the peer's acceptance.
func (b *Backend) handshake(c net.Conn, node cluster.NodeID) error {
	c.SetDeadline(time.Now().Add(b.timeout))
	defer c.SetDeadline(time.Time{})
	hello := &frame{
		Op:      opHello,
		Dst:     int32(node),
		Tag:     helloMagic,
		Version: int64(wireVersion),
		Bytes:   int64(b.machine.NumNodes()),
		Bytes2:  int64(b.machine.CoresPerNode()),
	}
	if err := writeFrame(c, hello); err != nil {
		return err
	}
	resp, err := readFrame(c)
	if err != nil {
		return err
	}
	if resp.Op != opResp || resp.Status != statusOK {
		return fmt.Errorf("%w: %s", errHandshake, resp.Err)
	}
	return nil
}

// checkHello validates a client's handshake against this server.
func (b *Backend) checkHello(fr *frame) error {
	if fr.Op != opHello || fr.Tag != helloMagic {
		return fmt.Errorf("not a tcpnet hello")
	}
	if fr.Version != int64(wireVersion) {
		return fmt.Errorf("wire version %d, want %d", fr.Version, wireVersion)
	}
	if fr.Bytes != int64(b.machine.NumNodes()) || fr.Bytes2 != int64(b.machine.CoresPerNode()) {
		return fmt.Errorf("machine shape %dx%d, want %dx%d",
			fr.Bytes, fr.Bytes2, b.machine.NumNodes(), b.machine.CoresPerNode())
	}
	if fr.Dst != int32(b.node) {
		return fmt.Errorf("node %d is not served here", fr.Dst)
	}
	return nil
}

// conn returns a pooled connection to node, dialing when the pool is
// empty; cached reports whether the connection was reused.
func (b *Backend) conn(node cluster.NodeID) (c *peerConn, cached bool, err error) {
	b.mu.Lock()
	if list := b.pools[node]; len(list) > 0 {
		c = list[len(list)-1]
		b.pools[node] = list[:len(list)-1]
		b.mu.Unlock()
		return c, true, nil
	}
	b.mu.Unlock()
	c, err = b.dial(node)
	return c, false, err
}

// release returns c to node's pool after a completed exchange. A
// connection whose read buffer still holds bytes the exchange did not
// consume would hand them to the next exchange as its response, so it is
// closed instead.
func (b *Backend) release(node cluster.NodeID, c *peerConn) {
	if b.closed.Load() || c.r.Buffered() > 0 {
		c.Close()
		return
	}
	b.mu.Lock()
	b.pools[node] = append(b.pools[node], c)
	b.mu.Unlock()
}

// writeRequest writes a request to the server of node on a pooled
// connection, dialing when the pool is empty, and returns the connection,
// whose answer the caller reads and then releases or closes. write puts the
// whole request frame on the connection it is given, from its first byte:
// a write that fails on a pooled connection found it closed by the peer
// while pooled, and the server executes no frame it did not receive whole,
// so the request is written again on a fresh connection. Once a request
// has hit the wire nothing is retried here, since the operation may
// already have executed remotely.
func (b *Backend) writeRequest(node cluster.NodeID, write func(w io.Writer) error) (*peerConn, error) {
	for {
		c, cached, err := b.conn(node)
		if err != nil {
			return nil, err
		}
		b.armWrite(c)
		if err = write(c); err == nil {
			return c, nil
		}
		c.Close()
		if !cached {
			return nil, fmt.Errorf("tcpnet: exchange with node %d: %w", node, lost(err))
		}
	}
}

// exchange is the driver's side of every op answered by one frame: it
// writes request fr (or what write puts on the wire) to node, reads the
// answer under the I/O deadline — no handler behind such an op waits on
// another task — and returns its status as the error or, when its kind is
// the one fr's op row declares, its payload.
func (b *Backend) exchange(node cluster.NodeID, fr *frame, write func(w io.Writer) error) ([]byte, error) {
	if write == nil {
		write = func(w io.Writer) error { return writeFrame(w, fr) }
	}
	c, err := b.writeRequest(node, write)
	if err != nil {
		return nil, err
	}
	c.SetReadDeadline(time.Now().Add(b.timeout))
	resp, err := readFrame(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpnet: exchange with node %d: %w", node, lost(err))
	}
	b.release(node, c)
	switch want := ops[fr.Op].resp; {
	case resp.Op != opResp:
		return nil, fmt.Errorf("tcpnet: unexpected response op %d from node %d", resp.Op, node)
	case resp.Status != statusOK:
		return nil, remoteErr(resp.Status, resp.Err)
	case resp.Kind != want:
		return nil, fmt.Errorf("tcpnet: op %d answered with payload kind %d, want %d", fr.Op, resp.Kind, want)
	}
	return resp.Payload, nil
}

// errNotExposed is the answer to an Exposed probe of an absent buffer,
// sent as statusNotFound without text.
var errNotExposed = errors.New("tcpnet: buffer not exposed")

// statusOf is the status that carries err across the wire: the sentinels
// callers test for have codes of their own.
func statusOf(err error) uint8 {
	switch {
	case errors.Is(err, transport.ErrEndpointClosed):
		return statusClosed
	case errors.Is(err, transport.ErrReadPatience):
		return statusPatience
	case err == errNotExposed:
		return statusNotFound
	}
	return statusErr
}

// remoteErr is the caller-visible error of a status and its text, the
// inverse of statusOf: ErrEndpointClosed stays terminal across the wire,
// ErrReadPatience transient, and any other remote error is terminal.
func remoteErr(status uint8, text string) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return errNotExposed
	case statusClosed:
		return fmt.Errorf("tcpnet: %s: %w", text, transport.ErrEndpointClosed)
	case statusPatience:
		return fmt.Errorf("tcpnet: %s: %w", text, transport.ErrReadPatience)
	}
	return fmt.Errorf("tcpnet: remote: %s", text)
}

func meterFrame(fr *frame, m transport.Meter) {
	fr.MeterClass = uint8(m.Class)
	fr.DstApp = int32(m.DstApp)
	fr.Phase = m.Phase
	fr.Span = m.Span
}

func frameMeter(fr *frame) transport.Meter {
	return transport.Meter{Phase: fr.Phase, Class: cluster.Class(fr.MeterClass), DstApp: int(fr.DstApp), Span: fr.Span}
}

// ReadMulti implements transport.Backend. The specs are cut into runs of
// consecutive specs owned behind one node — a schedule sorted by owner has
// one run per owning node — and each run is one scatter-gather exchange:
// a request frame carrying the run, answered by a response header and the
// stream of owner-clipped segments behind it. Every request is written
// before any answer is read, so all owning nodes clip and send together.
// An answer of at most maxPooledBuf requested bytes arrives in one gathered
// server write and is read on the calling goroutine; of the larger answers
// the caller reads the first and each further one gets a goroutine, so big
// answers decode side by side, and deliver may run on several goroutines at
// once, never for two specs of one run. The caller reads its big answer
// before the small ones: a small answer waits in the socket buffers until
// it is read, while a big one left unread would stall its server's write
// past the IO deadline whenever a small answer ahead of it still waits on
// its producer's expose. The error is that of the lowest-indexed failing
// run, a *transport.SpecError naming its first spec; every connection whose
// answer was not read to its end is closed, never pooled. Every goroutine
// has finished when ReadMulti returns.
func (b *Backend) ReadMulti(reader cluster.CoreID, specs []transport.ReadSpec, m transport.Meter, deliver transport.SegmentFunc) error {
	if len(specs) == 0 {
		return nil
	}
	st := fanoutPool.Get().(*fanout)
	defer st.put()
	for lo := 0; lo < len(specs); {
		x := exchange{node: b.machine.NodeOf(specs[lo].Owner), lo: lo}
		var requested int64
		for x.hi = lo; x.hi < len(specs) && b.machine.NodeOf(specs[x.hi].Owner) == x.node; x.hi++ {
			requested += specs[x.hi].Bytes
		}
		x.big = requested > maxPooledBuf
		st.xs = append(st.xs, x)
		lo = x.hi
	}
	// Write every request first. A failed one ends the writing: what it
	// would have sent lies behind it, while the answers already requested
	// are still read, since one of them may fail at a lower index.
	sent := st.xs
	for i := range st.xs {
		x := &st.xs[i]
		if x.err = b.send(x, reader, specs[x.lo:x.hi], m); x.err != nil {
			sent = st.xs[:i]
			break
		}
	}
	own := -1 // the first big answer, read here
	for i := range sent {
		switch x := &sent[i]; {
		case !x.big:
		case own < 0:
			own = i
		default:
			st.wg.Add(1)
			go func() {
				defer st.wg.Done()
				b.receive(x, specs, deliver)
			}()
		}
	}
	failed := len(sent) // the lowest run known to have failed
	if own >= 0 {
		b.receive(&sent[own], specs, deliver)
		if sent[own].err != nil {
			failed = own
		}
	}
	for i := range sent[:failed] {
		if x := &sent[i]; !x.big {
			b.receive(x, specs, deliver)
			if x.err != nil {
				break // the later answers' errors would rank behind this one
			}
		}
	}
	st.wg.Wait()
	for i := range st.xs {
		if x := &st.xs[i]; x.err != nil {
			return &transport.SpecError{Index: x.lo, Err: x.err}
		}
	}
	return nil
}

// exchange is one run of a ReadMulti: the specs [lo, hi) that node serves,
// whether their answer is big (above maxPooledBuf requested bytes), the
// connection the request went out on until its answer is read, and the
// run's error.
type exchange struct {
	node   cluster.NodeID
	lo, hi int
	big    bool
	c      *peerConn
	err    error
}

// fanout is the bookkeeping of one ReadMulti, pooled so that a warm read
// allocates none of it.
type fanout struct {
	xs []exchange
	wg sync.WaitGroup
}

var fanoutPool = sync.Pool{New: func() any { return new(fanout) }}

// put closes every connection whose answer was not read — its stream is
// still owed, so it is out of protocol sync — and returns st to the pool.
func (st *fanout) put() {
	st.wg.Wait()
	for _, x := range st.xs {
		if x.c != nil {
			x.c.Close()
		}
	}
	clear(st.xs)
	st.xs = st.xs[:0]
	fanoutPool.Put(st)
}

// send writes the request of one run to its node, with the backend's
// ReadPatience in its Tag, and leaves the connection the answer will
// arrive on in x.c.
func (b *Backend) send(x *exchange, reader cluster.CoreID, run []transport.ReadSpec, m transport.Meter) error {
	bp := getBuf()
	defer putBuf(bp)
	payload, err := appendReadSpecs((*bp)[:0], run)
	if err != nil {
		return err
	}
	*bp = payload[:0]
	fr := frame{Op: opReadMulti, Src: int32(reader), Dst: int32(run[0].Owner),
		Tag: uint64(b.cfg.ReadPatience), Payload: payload}
	meterFrame(&fr, m)
	b.stats.readMultiReqs.Add(1)
	obsWireReadMultiReqs.Inc()
	x.c, err = b.writeRequest(x.node, func(w io.Writer) error { return writeFrame(w, &fr) })
	return err
}

// receive reads the answer of one sent run, pooling its connection when the
// answer was read to its end and closing it otherwise.
func (b *Backend) receive(x *exchange, specs []transport.ReadSpec, deliver transport.SegmentFunc) {
	c := x.c
	x.c = nil
	err := b.readAnswer(c, specs[x.lo:x.hi], x.lo, deliver)
	if err == nil {
		b.release(x.node, c)
		return
	}
	c.Close()
	x.err = fmt.Errorf("tcpnet: exchange with node %d: %w", x.node, lost(err))
}

// readAnswer consumes the response stream of one run's request,
// delivering each segment, at its index in the call (base + position in the
// run), through a pooled staging buffer that is only valid for the
// duration of the callback.
func (b *Backend) readAnswer(c *peerConn, run []transport.ReadSpec, base int, deliver transport.SegmentFunc) error {
	// The stream legitimately blocks until every buffer is exposed: the one
	// response read without a deadline.
	c.SetReadDeadline(time.Time{})
	resp, err := readFrame(c)
	if err != nil {
		return err
	}
	if resp.Op != opResp {
		return fmt.Errorf("unexpected response op %d", resp.Op)
	}
	if err := remoteErr(resp.Status, resp.Err); err != nil {
		return err
	}
	if int(resp.Bytes) != len(run) {
		return fmt.Errorf("response announces %d segments, want %d", resp.Bytes, len(run))
	}
	bp := getStage()
	defer putStage(bp)
	for i := range run {
		status, index, length, err := readSegmentHeader(c)
		if err != nil {
			return err
		}
		if index != i {
			return fmt.Errorf("segment %d arrived at position %d", index, i)
		}
		if cap(*bp) < length {
			*bp = make([]byte, length)
		}
		body := (*bp)[:length]
		if _, err := io.ReadFull(c, body); err != nil {
			return err
		}
		if status != statusOK {
			return remoteErr(status, string(body))
		}
		if err := deliver(base+i, nil, body); err != nil {
			return err
		}
	}
	return nil
}

// Call implements transport.Backend.
func (b *Backend) Call(src, dst cluster.CoreID, service string, request any, m transport.Meter, reqBytes, respBytes int64) (any, error) {
	enc, err := transport.EncodePayload(request)
	if err != nil {
		return nil, err
	}
	fr := &frame{Op: opCall, Kind: payloadMsg, Src: int32(src), Dst: int32(dst), Name: service, Bytes: reqBytes, Bytes2: respBytes, Payload: enc}
	meterFrame(fr, m)
	out, err := b.exchange(b.machine.NodeOf(dst), fr, nil)
	if err != nil {
		return nil, err
	}
	return transport.DecodePayload(out)
}

// exposeChunk is the size of the pieces an exposed block is encoded and
// written in (256 KiB): each piece leaves for the socket while it is still
// in the cache it was encoded into, and the sender never holds more of the
// block's wire form than one piece.
const exposeChunk = 256 << 10

// Expose implements transport.Backend: the block's wire form is encoded
// piece by piece into a pooled staging buffer, each piece written as soon
// as it is encoded — the frame header leads the first, and a block that
// fits one piece costs one write. A frame the peer would refuse as too
// large is refused here, before a byte is written. Expose returns once the
// last byte is written and the owner has answered; the caller's payload is
// not referenced after the call.
func (b *Backend) Expose(owner cluster.CoreID, key transport.BufKey, payload any) error {
	block, ok := payload.(transport.BlockPayload)
	if !ok {
		return fmt.Errorf("tcpnet: exposing %T on core %d: not a transport.BlockPayload", payload, owner)
	}
	hp := getBuf()
	defer putBuf(hp)
	// The block header decides the payload length the frame head carries,
	// so it is encoded once to size the head, then again behind it.
	boxHdr, cells, err := block.AppendBlockHeader((*hp)[:0])
	if err != nil {
		return err
	}
	n := len(boxHdr) + cells*transport.CellBytes
	fr := &frame{Op: opExpose, Kind: payloadBlock, Dst: int32(owner), Name: key.Name, Version: int64(key.Version)}
	pre, send, err := appendFrameHead((*hp)[:0], fr, n)
	if err != nil {
		return err
	}
	if body := len(pre) - 4 + send; body > maxFrame {
		return fmt.Errorf("tcpnet: exposing %v on core %d: frame of %d bytes exceeds limit %d: %w",
			key, owner, body, maxFrame, transport.ErrTooLarge)
	}
	pre, _, _ = block.AppendBlockHeader(pre)
	*hp = pre[:0]
	sp := getStage()
	defer putStage(sp)
	_, err = b.exchange(b.machine.NodeOf(owner), fr, func(w io.Writer) error {
		return writeBlock(w, sp, pre, block, cells, n-send)
	})
	return err
}

// writeBlock writes a block frame: pre, the frame head and the block
// header, then the block's cells, encoded into *sp at most exposeChunk
// bytes at a time and each piece written as soon as it is full. The last
// short bytes of the frame are not sent (a seeded wire defect).
func writeBlock(w io.Writer, sp *[]byte, pre []byte, block transport.BlockPayload, cells, short int) error {
	*sp = append((*sp)[:0], pre...)
	for from := 0; ; {
		to := min(cells, from+max(exposeChunk-len(*sp), 0)/transport.CellBytes)
		*sp = block.AppendBlockCells(*sp, from, to)
		if to == cells {
			*sp = (*sp)[:len(*sp)-short]
		}
		if _, err := w.Write(*sp); err != nil {
			return err
		}
		if *sp, from = (*sp)[:0], to; from == cells {
			return nil
		}
	}
}

// Unexpose implements transport.Backend.
func (b *Backend) Unexpose(owner cluster.CoreID, key transport.BufKey) error {
	fr := &frame{Op: opUnexpose, Dst: int32(owner), Name: key.Name, Version: int64(key.Version)}
	_, err := b.exchange(b.machine.NodeOf(owner), fr, nil)
	return err
}

// Exposed implements transport.Backend: true only when the owner answered
// that the buffer is exposed, false beside any error.
func (b *Backend) Exposed(owner cluster.CoreID, key transport.BufKey) (bool, error) {
	fr := &frame{Op: opExposed, Dst: int32(owner), Name: key.Name, Version: int64(key.Version)}
	_, err := b.exchange(b.machine.NodeOf(owner), fr, nil)
	if err == errNotExposed {
		return false, nil
	}
	return err == nil, err
}

// NodeAccount is one process's recorded transfer accounting: the
// fabric's per-medium counters, the full metrics snapshot (class/medium
// totals, per-app volumes, flows), the process's obs registry and its
// wire-level counters — everything the driver needs to build a per-node
// report section that reconciles registry values against the two
// independent sources. A serving node ships it in answer to opStats; the
// driver fills in Addr and Node, the peer it asked, and retains it until
// the next MergeRemoteStats fan-out.
type NodeAccount struct {
	Addr             string
	Node             int
	ShmBytes, ShmOps int64
	NetBytes, NetOps int64
	Metrics          cluster.MetricsSnapshot
	Registry         obs.Snapshot
	Wire             WireStats
}

// NodeAccounts returns the per-peer accounting retained by the last
// MergeRemoteStats call (nil before the first).
func (b *Backend) NodeAccounts() []NodeAccount {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]NodeAccount(nil), b.accounts...)
}

// eachPeer calls fn once per node in the peer table, in node order, with
// the address of the process serving it. It stops at the first error fn
// returns.
func (b *Backend) eachPeer(fn func(addr string, node cluster.NodeID) error) error {
	b.mu.Lock()
	addrs := make([]string, b.machine.NumNodes())
	for node := range addrs {
		addrs[node] = b.addrs[cluster.NodeID(node)]
	}
	b.mu.Unlock()
	for node, addr := range addrs {
		if addr == "" {
			continue
		}
		if err := fn(addr, cluster.NodeID(node)); err != nil {
			return err
		}
	}
	return nil
}

// MergeRemoteStats pulls the transfer accounting every remote peer
// recorded while executing this process's operations and folds it into
// the local fabric and machine metrics, so the merged totals equal what a
// single-process run records. A node ships its whole account, and what is
// merged is what it recorded since the account the last fan-out retained
// for its address; a node at a new address (a replacement) counts in full.
// Every account is fetched before any is merged: a fan-out that fails
// merges nothing, so calling it again counts no peer twice.
func (b *Backend) MergeRemoteStats() error {
	var accounts []NodeAccount
	err := b.eachPeer(func(addr string, node cluster.NodeID) error {
		payload, err := b.exchange(node, &frame{Op: opStats}, nil)
		if err != nil {
			return err
		}
		var acct NodeAccount
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&acct); err != nil {
			return fmt.Errorf("tcpnet: decoding stats from node %d: %w", node, err)
		}
		acct.Addr, acct.Node = addr, int(node)
		accounts = append(accounts, acct)
		return nil
	})
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := make(map[string]NodeAccount, len(b.accounts))
	for _, acct := range b.accounts {
		prev[acct.Addr] = acct
	}
	for _, acct := range accounts {
		old := prev[acct.Addr]
		b.fabric.MergeMediumStats(acct.ShmBytes-old.ShmBytes, acct.ShmOps-old.ShmOps, acct.NetBytes-old.NetBytes, acct.NetOps-old.NetOps)
		b.machine.Metrics().Merge(acct.Metrics, old.Metrics)
	}
	b.accounts = accounts
	return nil
}

// PushPeers does nothing: no process but the driver dials, so there is no
// address table to distribute. bench/nodes.go still calls it; a benchmark
// PR may drop it.
func (b *Backend) PushPeers() error { return nil }

// ShutdownPeers asks every remote peer process to exit. Errors do not
// stop the fan-out — a peer that already exited is not a failure.
func (b *Backend) ShutdownPeers() {
	_ = b.eachPeer(func(_ string, node cluster.NodeID) error {
		_, _ = b.exchange(node, &frame{Op: opShutdown}, nil)
		return nil
	})
}

// Close implements transport.Backend: it stops the listeners, closes all
// cached and serving connections and waits for the accept loops. A server
// goroutine parked in a deferred read is not waited for: the owning
// endpoint's teardown (or the reader's patience) releases it.
func (b *Backend) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	if b.listener != nil {
		b.listener.Close()
	}
	b.mu.Lock()
	for _, list := range b.pools {
		for _, c := range list {
			c.Close()
		}
	}
	b.pools = make(map[cluster.NodeID][]*peerConn)
	for c := range b.serverConns {
		c.Close()
	}
	b.mu.Unlock()
	b.wg.Wait()
	return nil
}

// acceptRetryPause spaces the retries of a failing Accept.
const acceptRetryPause = 10 * time.Millisecond

func (b *Backend) acceptLoop(ln net.Listener) {
	defer b.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || b.closed.Load() {
				return
			}
			// Anything else (EMFILE, ECONNABORTED) is transient: a live
			// process must not be left with a dead listener.
			fmt.Fprintf(os.Stderr, "tcpnet: accept on %s: %v; retrying\n", ln.Addr(), err)
			time.Sleep(acceptRetryPause)
			continue
		}
		b.mu.Lock()
		if b.closed.Load() {
			b.mu.Unlock()
			c.Close()
			return
		}
		b.serverConns[c] = true
		b.mu.Unlock()
		go b.serveConn(c)
	}
}

// serveConn drives one client connection: handshake, then a strict
// request/response loop, reading through the connection's buffer and
// writing to it directly, each request answered through its row of the op
// table (dispatch). A deferred read blocks this goroutine only — the
// client holds the connection out of its pool for the duration — and so
// does an RPC, whose handler runs inline here (transport.Fabric.LocalCall).
func (b *Backend) serveConn(c net.Conn) {
	defer func() {
		b.mu.Lock()
		delete(b.serverConns, c)
		b.mu.Unlock()
		c.Close()
	}()
	r := bufio.NewReaderSize(c, readBufSize)
	hello, err := readFrame(r)
	if err != nil {
		return
	}
	if err := b.checkHello(hello); err != nil {
		_ = writeFrame(c, &frame{Op: opResp, Status: statusErr, Err: err.Error()})
		return
	}
	if err := writeFrame(c, &frame{Op: opResp, Status: statusOK}); err != nil {
		return
	}
	for {
		fr, err := readFrameInto(r, b.bodies)
		if err != nil || !b.dispatch(c, fr) {
			return
		}
	}
}

// opRow is one request op: the payload kinds of its request and answer,
// whether its Dst must be a core this node serves, and its handler, which
// returns the answer's payload — or stream, which writes the answer itself
// and reports whether the connection is still in protocol sync. exit makes
// the answer the process's last: the connection closes and Done fires.
type opRow struct {
	req, resp uint8
	target    bool
	handle    func(b *Backend, fr *frame) ([]byte, error)
	stream    func(b *Backend, c net.Conn, fr *frame) bool
	exit      bool
}

// ops is the op table, indexed by op code; opHello and opResp have no row.
// Every request is admitted and answered through its row (dispatch), and
// every one-frame answer checked against it (exchange).
var ops = [opMax]opRow{
	opCall:      {req: payloadMsg, resp: payloadMsg, target: true, handle: (*Backend).serveCall},
	opExpose:    {req: payloadBlock, target: true, handle: (*Backend).serveExpose},
	opUnexpose:  {target: true, handle: (*Backend).serveUnexpose},
	opExposed:   {target: true, handle: (*Backend).serveExposed},
	opStats:     {resp: payloadGob, handle: (*Backend).serveStats},
	opSpans:     {handle: (*Backend).serveSpans},
	opShutdown:  {handle: func(*Backend, *frame) ([]byte, error) { return nil, nil }, exit: true},
	opReadMulti: {target: true, stream: (*Backend).serveReadMulti},
}

// dispatch answers one request through its row and reports whether the
// connection still serves. The row admits the request first: an op it
// answers, a payload of its kind (refused before any codec touches the
// bytes) and a target served here. A refused or failed request is answered
// with its status and error text.
func (b *Backend) dispatch(c net.Conn, fr *frame) bool {
	row := &ops[fr.Op]
	var err error
	switch {
	case row.handle == nil && row.stream == nil:
		err = fmt.Errorf("unhandled op %d", fr.Op)
	case fr.Kind != row.req:
		err = fmt.Errorf("tcpnet: op %d carries payload kind %d, want %d", fr.Op, fr.Kind, row.req)
	case row.target:
		err = b.checkTarget(fr.Dst)
	}
	if err == nil && row.stream != nil {
		return row.stream(b, c, fr)
	}
	resp := &frame{Op: opResp, Kind: row.resp}
	if err == nil {
		resp.Payload, err = row.handle(b, fr)
	}
	if err != nil {
		resp = &frame{Op: opResp, Status: statusOf(err)}
		if resp.Status != statusNotFound {
			resp.Err = err.Error()
		}
	}
	if !b.reply(c, resp) {
		return false
	}
	if row.exit {
		b.shutdownOnce.Do(func() { close(b.shutdownCh) })
		return false
	}
	return true
}

// reply writes one answer frame under the write deadline and reports
// whether it left.
func (b *Backend) reply(c net.Conn, resp *frame) bool {
	b.armWrite(c)
	return writeFrame(c, resp) == nil
}

// serveReadMulti executes one scatter-gather read: validate the batch,
// announce the segment count in an ordinary response frame, then clip
// each requested sub-box out of its exposed buffer — the runs of its bytes
// (transport.RegionClipper), no cell copied — and stream the segments,
// each metered through LocalRead on this side, the side moving the bytes.
// A segment pins the body of the block it is clipped from (bodies) from
// its LocalRead until its bytes are copied or written. The response frame
// and every segment whose body fits maxInlineBody gather in one pooled
// buffer that leaves in one write — at the end, behind an error segment,
// or when the next segment would take it past maxPooledBuf; a larger
// segment flushes the buffer and leaves uncopied, its header and runs one
// vectored write. The return value reports
// whether the connection is still in protocol sync; a failure after the
// header frame is not (the client was promised segments), so the stream is
// aborted with an error segment and the connection dropped.
func (b *Backend) serveReadMulti(c net.Conn, fr *frame) bool {
	headerFail := func(err error) bool {
		// A pre-stream failure is an ordinary request/response exchange;
		// the connection stays usable.
		return b.reply(c, &frame{Op: opResp, Status: statusOf(err), Err: err.Error()})
	}
	if err := b.checkCore(fr.Src); err != nil {
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
		if err := b.checkTarget(int32(spec.Owner)); err != nil {
			return headerFail(err)
		}
	}
	if fr.Span != 0 {
		name := fmt.Sprintf("remote:readmulti:%d", len(specs))
		defer b.spanTracer.StartNode(obs.SpanID(fr.Span), name, b.nodeLabel(fr.Dst)).End()
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
		b.armWrite(c)
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
	defer func() {
		if clear(runs[:cap(runs)]); cap(runs) <= maxPooledRuns {
			*rp = runs[:0]
			runsPool.Put(rp)
		}
	}()
	for i, spec := range specs {
		if mutate.Enabled(mutate.TCPSGReorder) && count >= 2 && i < 2 {
			// Seeded defect: the first two segments keep their indices but
			// exchange payloads — protocol-valid, wrong bytes in each slot.
			spec = specs[1-i]
		}
		var pinned *heldBody
		payload, err := b.fabric.LocalRead(reader, spec.Owner, spec.Key, m, spec.Bytes, patience,
			func(block any) { pinned = b.bodies.pin(block) })
		if clipper, ok := payload.(transport.RegionClipper); ok && err == nil {
			runs, err = clipper.ClipRows(append(runs[:0], nil), spec.Sub)
		} else if err == nil {
			err = fmt.Errorf("tcpnet: exposed payload %T cannot clip regions", payload)
		}
		if err != nil {
			b.bodies.unpin(pinned)
			text := err.Error()
			pending = append(appendSegmentHeader(pending, statusOf(err), i, len(text)), text...)
			flush()
			return false
		}
		n := 0
		for _, run := range runs[1:] {
			n += len(run)
		}
		b.stats.segments.Add(1)
		b.stats.segmentBytes.Add(int64(n))
		obsWireSegments.Inc()
		obsWireSegmentBytes.Add(int64(n))
		if (n > maxInlineBody || len(pending)+segHeaderLen+n > maxPooledBuf) && !flush() {
			b.bodies.unpin(pinned)
			return false
		}
		pending = appendSegmentHeader(pending, statusOK, i, n)
		if n <= maxInlineBody {
			for _, run := range runs[1:] {
				pending = append(pending, run...)
			}
			b.bodies.unpin(pinned)
			continue
		}
		b.armWrite(c)
		runs[0] = pending
		*rp = runs
		err = writeBuffers(c, rp)
		b.bodies.unpin(pinned)
		if pending = pending[:0]; err != nil {
			return false
		}
	}
	return flush()
}

// serveCall runs an RPC's handler inline, under a handler span when the
// call carries trace context, parented under the requesting driver span
// and labelled with the serving node.
func (b *Backend) serveCall(fr *frame) ([]byte, error) {
	if fr.Span != 0 {
		defer b.spanTracer.StartNode(obs.SpanID(fr.Span), "remote:call:"+fr.Name, b.nodeLabel(fr.Dst)).End()
	}
	if err := b.checkCore(fr.Src); err != nil {
		return nil, err
	}
	if fr.Bytes < 0 || fr.Bytes2 < 0 {
		return nil, fmt.Errorf("negative metered size %d/%d", fr.Bytes, fr.Bytes2)
	}
	req, err := transport.DecodePayload(fr.Payload)
	if err != nil {
		return nil, err
	}
	out, err := b.fabric.LocalCall(cluster.CoreID(fr.Src), cluster.CoreID(fr.Dst), fr.Name, req, frameMeter(fr), fr.Bytes, fr.Bytes2)
	if err != nil {
		return nil, err
	}
	return transport.EncodePayload(out)
}

// serveExpose publishes the block an opExpose frame carries. The block
// keeps fr.Payload, a body from the free list (readFrameInto) that goes
// back to it when the block is withdrawn; a refused expose hands it back at
// once.
func (b *Backend) serveExpose(fr *frame) ([]byte, error) {
	block, err := transport.DecodeBlock(fr.Payload)
	if err != nil {
		b.bodies.give(fr.Payload)
		return nil, err
	}
	b.bodies.hold(block, fr.Payload)
	if err := b.fabric.LocalExpose(cluster.CoreID(fr.Dst), transport.BufKey{Name: fr.Name, Version: int(fr.Version)}, block); err != nil {
		b.bodies.release(block)
		return nil, err
	}
	return nil, nil
}

func (b *Backend) serveUnexpose(fr *frame) ([]byte, error) {
	b.bodies.release(b.fabric.LocalUnexpose(cluster.CoreID(fr.Dst), transport.BufKey{Name: fr.Name, Version: int(fr.Version)}))
	return nil, nil
}

func (b *Backend) serveExposed(fr *frame) ([]byte, error) {
	ok, err := b.fabric.LocalExposed(cluster.CoreID(fr.Dst), transport.BufKey{Name: fr.Name, Version: int(fr.Version)})
	if err == nil && !ok {
		err = errNotExposed
	}
	return nil, err
}

// serveStats answers with this process's NodeAccount, in gob.
func (b *Backend) serveStats(*frame) ([]byte, error) {
	acct := NodeAccount{
		ShmBytes: b.fabric.MediumBytes(cluster.SharedMemory),
		ShmOps:   b.fabric.MediumOps(cluster.SharedMemory),
		NetBytes: b.fabric.MediumBytes(cluster.Network),
		NetOps:   b.fabric.MediumOps(cluster.Network),
		Metrics:  b.machine.Metrics().Snapshot(),
		Registry: obs.Default.Snapshot(),
		Wire:     b.WireStats(),
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(acct)
	return buf.Bytes(), err
}

// serveSpans flushes and answers with the buffered remote span lines,
// clearing the buffer (nil when nothing has been emitted).
func (b *Backend) serveSpans(*frame) ([]byte, error) {
	_ = b.spanTracer.Flush()
	return b.spanSink.drain(), nil
}

// armWrite gives the next write on c the per-frame deadline.
func (b *Backend) armWrite(c net.Conn) {
	c.SetWriteDeadline(time.Now().Add(b.timeout))
}

// checkCore validates a wire-supplied core id.
func (b *Backend) checkCore(c int32) error {
	if int(c) < 0 || int(c) >= b.machine.TotalCores() {
		return fmt.Errorf("core %d out of range", c)
	}
	return nil
}

// checkTarget validates that the target core of an operation is served by
// this process.
func (b *Backend) checkTarget(c int32) error {
	if err := b.checkCore(c); err != nil {
		return err
	}
	if b.machine.NodeOf(cluster.CoreID(c)) != b.node {
		return fmt.Errorf("core %d is not served here", c)
	}
	return nil
}
