package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/obs"
	"github.com/insitu/cods/internal/transport"
)

// Config tunes a driver. A driver retries nothing: a dial is attempted
// once, and a failed exchange is the caller's to retry.
type Config struct {
	// ReadPatience is how long a ReadMulti this driver issues lets the
	// owner wait for a buffer that is not exposed yet: it travels in each
	// opReadMulti request, and the serving node fails a segment not
	// exposed within it with the transient transport.ErrReadPatience.
	// 0 (the default) waits forever, the classic in-situ deferred-read
	// semantics.
	ReadPatience time.Duration
}

// Backend is the driving half, the HybridDART execution client: a
// transport.Backend that owns no node and moves every operation on
// node-held state to the Server of the node that owns it, over pooled
// connections it dials. Only the driver, which runs the tasks, dials.
type Backend struct {
	fabric  *transport.Fabric
	machine *cluster.Machine
	cfg     Config
	// timeout is ioTimeout; tests shorten it (withIOTimeout).
	timeout time.Duration

	mu    sync.Mutex
	addrs map[cluster.NodeID]string
	pools map[cluster.NodeID][]*peerConn
	// accounts is what the last MergeRemoteStats fan-out collected.
	accounts []NodeAccount
	closed   atomic.Bool

	stats struct{ bytesOut, bytesIn, readMultiReqs atomic.Int64 }
}

// Connect builds the driver of codsrun -backend=tcp: it owns no node, and
// every operation is remote. peers maps each node to the address its
// server listens on.
func Connect(f *transport.Fabric, peers map[cluster.NodeID]string, cfg Config) (*Backend, error) {
	for node := 0; node < f.Machine().NumNodes(); node++ {
		if _, ok := peers[cluster.NodeID(node)]; !ok {
			return nil, fmt.Errorf("tcpnet: no peer address for node %d", node)
		}
	}
	return &Backend{fabric: f, machine: f.Machine(), cfg: cfg, timeout: ioTimeout,
		addrs: maps.Clone(peers), pools: make(map[cluster.NodeID][]*peerConn)}, nil
}

// WireStats returns the driver's half of the wire counters: the bytes of
// its dialed connections and the read requests it issued.
func (b *Backend) WireStats() WireStats {
	return WireStats{
		BytesOut:          b.stats.bytesOut.Load(),
		BytesIn:           b.stats.bytesIn.Load(),
		ReadMultiRequests: b.stats.readMultiReqs.Load(),
	}
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

// handshake announces the wire version, the machine shape and this host's
// cell order and waits for the peer's acceptance.
func (b *Backend) handshake(c net.Conn, node cluster.NodeID) error {
	c.SetDeadline(time.Now().Add(b.timeout))
	defer c.SetDeadline(time.Time{})
	hello := &frame{
		Op:      opHello,
		Status:  hostCells,
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
		armWrite(c, b.timeout)
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
	switch row := &ops[fr.Op]; {
	case resp.Op != opResp:
		return nil, fmt.Errorf("tcpnet: unexpected response op %d from node %d", resp.Op, node)
	case resp.Status != statusOK:
		return nil, remoteErr(resp.Status, resp.Err)
	case resp.Kind != row.resp:
		return nil, fmt.Errorf("tcpnet: %s answered with payload kind %d, want %d", row.name, resp.Kind, row.resp)
	}
	return resp.Payload, nil
}

// remoteErr is the caller-visible error of a status and its text, the
// inverse of the server's statusOf: ErrEndpointClosed stays terminal across the wire,
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
	case statusExposed:
		return fmt.Errorf("tcpnet: %s: %w", text, transport.ErrExposed)
	}
	return fmt.Errorf("tcpnet: remote: %s", text)
}

func meterFrame(fr *frame, m transport.Meter) {
	fr.MeterClass = uint8(m.Class)
	fr.DstApp = int32(m.DstApp)
	fr.Phase = m.Phase
	fr.Span = m.Span
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

// Expose implements transport.Backend: the frame head and the block header
// leave in one vectored write with the first cells, and the rest of the
// cells exposeChunk bytes at a time — all of them straight from the
// payload's memory (transport.BlockPayload), in this host's cell order,
// which the handshake declared. A frame the peer would refuse as too large
// is refused here, before a byte is written. Expose returns once the last
// byte is written and the owner has answered; the caller's payload is not
// referenced after the call.
func (b *Backend) Expose(owner cluster.CoreID, key transport.BufKey, payload any) error {
	block, ok := payload.(transport.BlockPayload)
	if !ok {
		return fmt.Errorf("tcpnet: exposing %T on core %d: not a transport.BlockPayload", payload, owner)
	}
	hp := getBuf()
	defer putBuf(hp)
	boxHdr, cells, err := block.AppendBlock((*hp)[:0])
	if err != nil {
		return err
	}
	// The frame head is encoded behind the block header, and sent before it.
	fr := &frame{Op: opExpose, Kind: payloadBlock, Dst: int32(owner), Name: key.Name, Version: int64(key.Version)}
	head, send, err := appendFrameHead(boxHdr[len(boxHdr):], fr, len(boxHdr)+len(cells))
	if err != nil {
		return err
	}
	if body := len(head) - 4 + send; body > maxFrame {
		return fmt.Errorf("tcpnet: exposing %v on core %d: frame of %d bytes exceeds limit %d: %w",
			key, owner, body, maxFrame, transport.ErrTooLarge)
	}
	cells = cells[:send-len(boxHdr)] // a seeded wire defect sends fewer bytes
	_, err = b.exchange(b.machine.NodeOf(owner), fr, func(w io.Writer) error {
		first := min(len(cells), exposeChunk-len(head)-len(boxHdr))
		rp := runsPool.Get().(*net.Buffers)
		runs := append((*rp)[:0], head, boxHdr, cells[:first])
		*rp = runs
		err := writeBuffers(w, rp)
		if putRuns(rp, runs); err != nil {
			return err
		}
		for rest := cells[first:]; len(rest) > 0; rest = rest[min(len(rest), exposeChunk):] {
			if _, err := w.Write(rest[:min(len(rest), exposeChunk)]); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// Unexpose implements transport.Backend.
func (b *Backend) Unexpose(owner cluster.CoreID, key transport.BufKey) error {
	fr := &frame{Op: opUnexpose, Dst: int32(owner), Name: key.Name, Version: int64(key.Version)}
	_, err := b.exchange(b.machine.NodeOf(owner), fr, nil)
	return err
}

// Exposed asks owner's node whether key is exposed: true only when the
// owner answered that it is, false beside any error.
func (b *Backend) Exposed(owner cluster.CoreID, key transport.BufKey) (bool, error) {
	fr := &frame{Op: opExposed, Dst: int32(owner), Name: key.Name, Version: int64(key.Version)}
	_, err := b.exchange(b.machine.NodeOf(owner), fr, nil)
	if err == errNotExposed {
		return false, nil
	}
	return err == nil, err
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

// Close closes every pooled connection; one out of its pool is closed
// when its exchange ends.
func (b *Backend) Close() error {
	b.closed.Store(true)
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, list := range b.pools {
		for _, c := range list {
			c.Close()
		}
	}
	clear(b.pools)
	return nil
}
