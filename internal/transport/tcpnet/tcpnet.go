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
	"github.com/insitu/cods/internal/retry"
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

// Config tunes a TCP backend.
type Config struct {
	// Retry governs dialing a peer: attempts, backoff and the deadline
	// each connection attempt (dial + handshake) must finish within. Its
	// Deadline also bounds each frame write and each response read on an
	// established connection (none when 0). The one exception is a
	// ReadMulti's response stream: a deferred read legitimately blocks
	// until the owner exposes the buffer, so it carries no deadline;
	// ReadPatience and the layers above bound it (the conformance
	// watchdog, the retry deadlines of gets). The zero value means a
	// single attempt with no deadline.
	Retry retry.Policy
	// Incarnation identifies this serving process's lifetime: a replacement
	// process for the same node must carry a higher value. It is announced
	// in every handshake response and checked by reconnecting clients, so a
	// crash-and-restart behind an unchanged address is detected instead of
	// silently served by a peer with empty state. 0 disables the check; a
	// driver, which serves nothing, leaves it 0.
	Incarnation uint64
	// ReadPatience bounds the deferred wait of a serving-side read (every
	// opReadMulti segment): a buffer not exposed within the window fails
	// the read with a retryable error instead of holding the exchange open
	// indefinitely. Elastic clusters set it on every codsnode so a read
	// that raced a node replacement — routed to a process that never
	// receives the buffer — is bounced back to the reader's retry layer,
	// which re-pulls against the reconciled routing. 0 (the default) waits
	// forever, the classic in-situ deferred-read semantics.
	ReadPatience time.Duration
}

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
	// node is the node a serving backend serves, with listener its
	// listener; a driver has node -1 and no listener.
	node     cluster.NodeID
	listener net.Listener

	mu          sync.Mutex
	addrs       map[cluster.NodeID]string
	pools       map[cluster.NodeID][]*peerConn
	serverConns map[net.Conn]bool
	// peerInc records the last incarnation observed for each peer node
	// (0 = none yet). A handshake that reports a different incarnation
	// fails with ErrStaleIncarnation until the membership layer installs
	// the new identity via UpdatePeer.
	peerInc map[cluster.NodeID]uint64

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

// drainSpans flushes and returns the buffered remote span lines,
// clearing the buffer. Returns nil when nothing has been emitted.
func (b *Backend) drainSpans() []byte {
	_ = b.spanTracer.Flush()
	return b.spanSink.drain()
}

// DrainRemoteSpans collects the handler spans every peer process buffered
// and splices them into tr (the driver's trace file). Call it after the
// workflow completes and before flushing the trace.
func (b *Backend) DrainRemoteSpans(tr *obs.Tracer) error {
	return b.eachPeer(func(_ string, node cluster.NodeID) error {
		resp, err := b.roundTrip(node, &frame{Op: opSpans})
		if err != nil {
			return err
		}
		if err := respErr(resp); err != nil {
			return err
		}
		tr.AppendRaw(resp.Payload)
		return nil
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

func newBackend(f *transport.Fabric, cfg Config) *Backend {
	if cfg.Retry == (retry.Policy{}) {
		// An unconfigured backend still gets bounded dials: the default
		// policy's deadline also becomes the per-frame IO timeout.
		cfg.Retry = retry.Default()
	}
	return &Backend{
		fabric:      f,
		machine:     f.Machine(),
		cfg:         cfg,
		node:        -1,
		addrs:       make(map[cluster.NodeID]string),
		pools:       make(map[cluster.NodeID][]*peerConn),
		serverConns: make(map[net.Conn]bool),
		peerInc:     make(map[cluster.NodeID]uint64),
		bodies:      newBodies(),
		shutdownCh:  make(chan struct{}),
	}
}

// Serve owns a single node of the machine, listening on addr — the
// codsnode child configuration. It learns no peer address: a serving
// process answers operations on the cores it owns and never dials.
func Serve(f *transport.Fabric, node cluster.NodeID, addr string, cfg Config) (*Backend, error) {
	b := newBackend(f, cfg)
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
	b := newBackend(f, cfg)
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
// wrong wire version or machine shape. Retrying cannot fix it.
var errHandshake = errors.New("tcpnet: handshake rejected")

// dial connects to a node's server and completes the versioned handshake,
// retrying transient failures under the configured policy.
func (b *Backend) dial(node cluster.NodeID) (*peerConn, error) {
	b.mu.Lock()
	addr := b.addrs[node]
	b.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("tcpnet: no address for node %d", node)
	}
	var conn *peerConn
	retryable := func(err error) bool {
		return !errors.Is(err, errHandshake) && !errors.Is(err, ErrStaleIncarnation)
	}
	_, err := retry.Do(b.cfg.Retry, uint64(node)*0x9e3779b97f4a7c15, retryable, nil, func(int) error {
		raw, err := net.DialTimeout("tcp", addr, b.cfg.Retry.Deadline)
		if err != nil {
			return err
		}
		c := &peerConn{countingConn: countingConn{Conn: raw, in: &b.stats.bytesIn, out: &b.stats.bytesOut}}
		c.r = bufio.NewReaderSize(c.countingConn, readBufSize)
		if err := b.handshake(c, node); err != nil {
			c.Close()
			return err
		}
		conn = c
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dialing node %d at %s: %w", node, addr, err)
	}
	return conn, nil
}

// handshake announces the wire version and machine shape and waits for
// the peer's acceptance.
func (b *Backend) handshake(c net.Conn, node cluster.NodeID) error {
	if d := b.cfg.Retry.Deadline; d > 0 {
		c.SetDeadline(time.Now().Add(d))
		defer c.SetDeadline(time.Time{})
	}
	want := b.PeerIncarnation(node)
	hello := &frame{
		Op:      opHello,
		Dst:     int32(node),
		Tag:     helloMagic,
		Version: int64(wireVersion),
		Bytes:   int64(b.machine.NumNodes()),
		Bytes2:  int64(b.machine.CoresPerNode()),
		Span:    want, // the incarnation this client expects (0 = none)
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
	// The response Tag is the server's incarnation. A peer that restarted
	// behind the same address answers the handshake happily — but with
	// empty endpoint state, so silently reusing the route would turn every
	// staged buffer into a hang. Reject the connection until the
	// membership layer acknowledges the new incarnation.
	if resp.Tag != 0 {
		if want != 0 && resp.Tag != want {
			return fmt.Errorf("tcpnet: node %d reports incarnation %d, expected %d: %w",
				node, resp.Tag, want, ErrStaleIncarnation)
		}
		b.mu.Lock()
		b.peerInc[node] = resp.Tag
		b.mu.Unlock()
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
			return nil, fmt.Errorf("tcpnet: exchange with node %d: %w", node, err)
		}
	}
}

// roundTrip performs one request/response frame exchange against the
// server of node. The response read carries the IO deadline: no handler
// behind a frame exchange waits on another task, so a node that does not
// answer in time is a transient failure, not a wait.
func (b *Backend) roundTrip(node cluster.NodeID, fr *frame) (*frame, error) {
	return b.roundTripWith(node, func(w io.Writer) error { return writeFrame(w, fr) })
}

// roundTripWith is roundTrip of the request frame write puts on the wire
// (writeRequest).
func (b *Backend) roundTripWith(node cluster.NodeID, write func(w io.Writer) error) (*frame, error) {
	c, err := b.writeRequest(node, write)
	if err != nil {
		return nil, err
	}
	if d := b.cfg.Retry.Deadline; d > 0 {
		c.SetReadDeadline(time.Now().Add(d))
	}
	resp, err := readFrame(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpnet: exchange with node %d: %w", node, err)
	}
	b.release(node, c)
	if resp.Op != opResp {
		return nil, fmt.Errorf("tcpnet: unexpected response op %d from node %d", resp.Op, node)
	}
	return resp, nil
}

// respErr maps a response status to the caller-visible error, preserving
// the ErrEndpointClosed sentinel across the wire so retry layers keep
// treating it as terminal.
func respErr(resp *frame) error {
	switch resp.Status {
	case statusOK:
		return nil
	case statusClosed:
		return fmt.Errorf("tcpnet: %s: %w", resp.Err, transport.ErrEndpointClosed)
	default:
		return fmt.Errorf("tcpnet: remote: %s", resp.Err)
	}
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

// send writes the request of one run to its node and leaves the
// connection the answer will arrive on in x.c.
func (b *Backend) send(x *exchange, reader cluster.CoreID, run []transport.ReadSpec, m transport.Meter) error {
	bp := getBuf()
	defer putBuf(bp)
	payload, err := appendReadSpecs((*bp)[:0], run)
	if err != nil {
		return err
	}
	*bp = payload[:0]
	fr := frame{Op: opReadMulti, Src: int32(reader), Dst: int32(run[0].Owner), Payload: payload}
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
	x.err = fmt.Errorf("tcpnet: exchange with node %d: %w", x.node, err)
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
	if err := respErr(resp); err != nil {
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
		switch status {
		case statusOK:
		case statusClosed:
			return fmt.Errorf("%s: %w", string(body), transport.ErrEndpointClosed)
		default:
			return fmt.Errorf("remote: %s", string(body))
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
	resp, err := b.roundTrip(b.machine.NodeOf(dst), fr)
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	if err := checkKind(resp, payloadMsg); err != nil {
		return nil, err
	}
	return transport.DecodePayload(resp.Payload)
}

// checkKind rejects a frame whose payload is not of the kind its op
// carries, before any codec touches the bytes.
func checkKind(fr *frame, want uint8) error {
	if fr.Kind != want {
		return fmt.Errorf("tcpnet: op %d carries payload kind %d, want %d", fr.Op, fr.Kind, want)
	}
	return nil
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
	resp, err := b.roundTripWith(b.machine.NodeOf(owner), func(w io.Writer) error {
		return writeBlock(w, sp, pre, block, cells, n-send)
	})
	if err != nil {
		return err
	}
	return respErr(resp)
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
	resp, err := b.roundTrip(b.machine.NodeOf(owner), fr)
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Exposed implements transport.Backend.
func (b *Backend) Exposed(owner cluster.CoreID, key transport.BufKey) (bool, error) {
	fr := &frame{Op: opExposed, Dst: int32(owner), Name: key.Name, Version: int64(key.Version)}
	resp, err := b.roundTrip(b.machine.NodeOf(owner), fr)
	if err != nil {
		return false, err
	}
	if resp.Status == statusNotFound {
		return false, nil
	}
	return true, respErr(resp)
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
// single-process run records. Call it after the workflow completes and
// before reading any traffic report.
func (b *Backend) MergeRemoteStats() error {
	var accounts []NodeAccount
	err := b.eachPeer(func(addr string, node cluster.NodeID) error {
		resp, err := b.roundTrip(node, &frame{Op: opStats})
		if err != nil {
			return err
		}
		if err := respErr(resp); err != nil {
			return err
		}
		var acct NodeAccount
		if err := gob.NewDecoder(bytes.NewReader(resp.Payload)).Decode(&acct); err != nil {
			return fmt.Errorf("tcpnet: decoding stats from node %d: %w", node, err)
		}
		acct.Addr, acct.Node = addr, int(node)
		b.fabric.MergeMediumStats(acct.ShmBytes, acct.ShmOps, acct.NetBytes, acct.NetOps)
		b.machine.Metrics().Merge(acct.Metrics)
		accounts = append(accounts, acct)
		return nil
	})
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.accounts = accounts
	b.mu.Unlock()
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
		_, _ = b.roundTrip(node, &frame{Op: opShutdown})
		return nil
	})
}

// Close implements transport.Backend: it stops the listeners, closes all
// cached and serving connections and waits for the accept loops. A server
// goroutine parked in a deferred read is not waited for: the owning
// endpoint's teardown (or ReadPatience) releases it.
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

func (b *Backend) forgetConn(c net.Conn) {
	b.mu.Lock()
	delete(b.serverConns, c)
	b.mu.Unlock()
}

// serveConn drives one client connection: handshake, then a strict
// request/response loop, reading through the connection's buffer and
// writing to it directly. A deferred read blocks this goroutine only — the
// client holds the connection out of its pool for the duration — and so
// does an RPC, whose handler runs inline here (transport.Fabric.LocalCall).
func (b *Backend) serveConn(c net.Conn) {
	defer c.Close()
	defer b.forgetConn(c)
	r := bufio.NewReaderSize(c, readBufSize)
	hello, err := readFrame(r)
	if err != nil {
		return
	}
	if err := b.checkHello(hello); err != nil {
		_ = writeFrame(c, &frame{Op: opResp, Status: statusErr, Err: err.Error()})
		return
	}
	// The acceptance carries this process's incarnation so a reconnecting
	// client can tell a restarted server from the one it knew.
	if err := writeFrame(c, &frame{Op: opResp, Status: statusOK, Tag: b.cfg.Incarnation}); err != nil {
		return
	}
	for {
		fr, err := readFrameInto(r, b.bodies)
		if err != nil {
			return
		}
		if fr.Op == opReadMulti {
			// The scatter-gather response is a header frame plus a raw
			// segment stream, not a single frame; it writes to the
			// connection itself.
			if !b.serveReadMulti(c, fr) {
				return
			}
			continue
		}
		resp := b.execute(fr)
		if err := writeFrame(c, resp); err != nil {
			return
		}
		if fr.Op == opShutdown {
			b.shutdownOnce.Do(func() { close(b.shutdownCh) })
			return
		}
	}
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
		resp := &frame{Op: opResp, Err: err.Error()}
		if errors.Is(err, transport.ErrEndpointClosed) {
			resp.Status = statusClosed
		} else {
			resp.Status = statusErr
		}
		// A pre-stream failure is an ordinary request/response exchange;
		// the connection stays usable.
		return writeFrame(c, resp) == nil
	}
	if err := b.checkCore(fr.Src); err != nil {
		return headerFail(err)
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
		payload, err := b.fabric.LocalRead(reader, spec.Owner, spec.Key, m, spec.Bytes, b.cfg.ReadPatience,
			func(block any) { pinned = b.bodies.pin(block) })
		if clipper, ok := payload.(transport.RegionClipper); ok && err == nil {
			runs, err = clipper.ClipRows(append(runs[:0], nil), spec.Sub)
		} else if err == nil {
			err = fmt.Errorf("tcpnet: exposed payload %T cannot clip regions", payload)
		}
		if err != nil {
			b.bodies.unpin(pinned)
			status, text := statusErr, err.Error()
			if errors.Is(err, transport.ErrEndpointClosed) {
				status = statusClosed
			}
			pending = append(appendSegmentHeader(pending, status, i, len(text)), text...)
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

// expose publishes the block an opExpose frame carries. The block keeps
// fr.Payload, a body from the free list (readFrameInto) that goes back to
// it when the block is withdrawn; a refused expose hands it back at once.
func (b *Backend) expose(fr *frame, key transport.BufKey) error {
	// Only the raw block codec is accepted: a gob-encoded block from a
	// stale sender is refused, not decoded.
	err := checkKind(fr, payloadBlock)
	var block any
	if err == nil {
		block, err = transport.DecodeBlock(fr.Payload)
	}
	if err != nil {
		b.bodies.give(fr.Payload)
		return err
	}
	b.bodies.hold(block, fr.Payload)
	if err := b.fabric.LocalExpose(cluster.CoreID(fr.Dst), key, block); err != nil {
		b.bodies.release(block)
		return err
	}
	return nil
}

// armWrite gives the next write on c the per-frame deadline.
func (b *Backend) armWrite(c net.Conn) {
	if d := b.cfg.Retry.Deadline; d > 0 {
		c.SetWriteDeadline(time.Now().Add(d))
	}
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

// execute runs one decoded request against the local fabric and builds
// the response frame. A call that carries trace context gets a handler
// span parented under the requesting driver span, labelled with the
// serving node.
func (b *Backend) execute(fr *frame) *frame {
	if fr.Span != 0 && fr.Op == opCall {
		defer b.spanTracer.StartNode(obs.SpanID(fr.Span), "remote:call:"+fr.Name, b.nodeLabel(fr.Dst)).End()
	}
	resp := &frame{Op: opResp}
	fail := func(err error) *frame {
		if errors.Is(err, transport.ErrEndpointClosed) {
			resp.Status = statusClosed
		} else {
			resp.Status = statusErr
		}
		resp.Err = err.Error()
		return resp
	}
	key := transport.BufKey{Name: fr.Name, Version: int(fr.Version)}
	switch fr.Op {
	case opCall:
		if err := b.checkCore(fr.Src); err != nil {
			return fail(err)
		}
		if err := b.checkTarget(fr.Dst); err != nil {
			return fail(err)
		}
		if err := checkKind(fr, payloadMsg); err != nil {
			return fail(err)
		}
		if fr.Bytes < 0 || fr.Bytes2 < 0 {
			return fail(fmt.Errorf("negative metered size %d/%d", fr.Bytes, fr.Bytes2))
		}
		req, err := transport.DecodePayload(fr.Payload)
		if err != nil {
			return fail(err)
		}
		out, err := b.fabric.LocalCall(cluster.CoreID(fr.Src), cluster.CoreID(fr.Dst), fr.Name, req, frameMeter(fr), fr.Bytes, fr.Bytes2)
		if err != nil {
			return fail(err)
		}
		enc, err := transport.EncodePayload(out)
		if err != nil {
			return fail(err)
		}
		resp.Kind, resp.Payload = payloadMsg, enc
	case opExpose:
		if err := b.checkTarget(fr.Dst); err != nil {
			return fail(err)
		}
		if err := b.expose(fr, key); err != nil {
			return fail(err)
		}
	case opUnexpose:
		if err := b.checkTarget(fr.Dst); err != nil {
			return fail(err)
		}
		b.bodies.release(b.fabric.LocalUnexpose(cluster.CoreID(fr.Dst), key))
	case opExposed:
		if err := b.checkTarget(fr.Dst); err != nil {
			return fail(err)
		}
		ok, err := b.fabric.LocalExposed(cluster.CoreID(fr.Dst), key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = statusNotFound
		}
	case opStats:
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
		if err := gob.NewEncoder(&buf).Encode(acct); err != nil {
			return fail(err)
		}
		resp.Kind, resp.Payload = payloadGob, buf.Bytes()
	case opSpans:
		resp.Payload = b.drainSpans()
	case opShutdown:
		// Acknowledged here; serveConn triggers the shutdown channel after
		// the response is on the wire.
	default:
		return fail(fmt.Errorf("unhandled op %d", fr.Op))
	}
	return resp
}
