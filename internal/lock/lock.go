// Package lock provides the distributed reader/writer lock service of the
// DataSpaces lineage CoDS builds on: coupled applications coordinate
// access to shared variables with lock-on-write / lock-on-read semantics
// (dspaces_lock_on_write/read in the original API). A producer takes the
// write lock while it updates a variable's blocks; consumers take read
// locks, which are granted concurrently once no writer holds the lock.
//
// As in DataSpaces, a read lock on a name that has never been
// write-released blocks until the first writer releases: coupled
// producers and consumers launch concurrently and the lock order must not
// depend on who reaches the manager first — readers always observe a
// completed write.
//
// The lock manager runs on the workflow management node (core 0). Grants
// are FIFO with reader batching, except that queued writers may overtake
// queued readers while the name is still unwritten.
package lock

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/transport"
)

// Mode distinguishes shared and exclusive acquisition.
type Mode int

// Lock modes.
const (
	Read Mode = iota
	Write
)

// String names the mode.
func (m Mode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

const (
	serviceName = "cods.lock"
	// grantTag is the message tag lock grants are delivered on.
	grantTag uint64 = 0x10C0
)

type request struct {
	core cluster.CoreID
	mode Mode
}

// state is one named lock's book-keeping.
type state struct {
	writer     bool                   // an exclusive holder exists
	writerCore cluster.CoreID         // the exclusive holder
	written    bool                   // a writer has released at least once
	readers    map[cluster.CoreID]int // shared holders
	queue      []request
}

type acquireReq struct {
	Name string
	Mode Mode
}

type releaseReq struct {
	Name string
}

type acquireResp struct {
	Granted bool
}

// The three lock messages share one wire form (DESIGN §5f, *Control
// messages*): the tag byte, one argument byte — an acquire's mode (0 read,
// 1 write), 0 in a release, a response's granted flag (0 or 1) — then the
// lock name as a u32 length and exactly that many bytes, which end the
// message (a response names no lock).
const (
	tagAcquire uint8 = iota + 8
	tagRelease
	tagAcquireResp
)

func appendMessage(dst []byte, tag, arg uint8, name string) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, tag, arg), uint32(len(name)))
	return append(dst, name...)
}

func (r acquireReq) AppendWire(dst []byte) []byte {
	return appendMessage(dst, tagAcquire, uint8(r.Mode), r.Name)
}

func (r releaseReq) AppendWire(dst []byte) []byte { return appendMessage(dst, tagRelease, 0, r.Name) }

func (r acquireResp) AppendWire(dst []byte) []byte {
	if r.Granted {
		return appendMessage(dst, tagAcquireResp, 1, "")
	}
	return appendMessage(dst, tagAcquireResp, 0, "")
}

func init() {
	type msg = transport.WireMessage
	// register installs a strict decoder of the shared form: the argument at
	// most maxArg, the name exactly the rest (and empty unless named).
	register := func(tag uint8, sample msg, maxArg uint8, named bool, build func(arg uint8, name string) msg) {
		transport.RegisterMessage(tag, sample, func(b []byte) (msg, error) {
			if len(b) < 5 || b[0] > maxArg || uint64(binary.BigEndian.Uint32(b[1:])) != uint64(len(b)-5) || !named && len(b) > 5 {
				return nil, fmt.Errorf("lock: malformed message of %d bytes under tag %d", 1+len(b), tag)
			}
			return build(b[0], string(b[5:])), nil
		})
	}
	register(tagAcquire, acquireReq{Name: "u", Mode: Write}, uint8(Write), true,
		func(arg uint8, name string) msg { return acquireReq{Name: name, Mode: Mode(arg)} })
	register(tagRelease, releaseReq{Name: "u"}, 0, true,
		func(_ uint8, name string) msg { return releaseReq{Name: name} })
	register(tagAcquireResp, acquireResp{Granted: true}, 1, false,
		func(arg uint8, _ string) msg { return acquireResp{Granted: arg == 1} })
}

// Service is the lock manager.
type Service struct {
	fabric *transport.Fabric
	home   cluster.CoreID

	mu    sync.Mutex
	locks map[string]*state
}

// NewService creates the lock manager and registers its handler on the
// management core (core 0).
func NewService(f *transport.Fabric) *Service {
	s := &Service{fabric: f, home: 0, locks: make(map[string]*state)}
	f.Endpoint(s.home).RegisterHandler(serviceName, s.serve)
	return s
}

// serve processes acquire/release requests on the manager core.
func (s *Service) serve(src cluster.CoreID, req any) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r := req.(type) {
	case acquireReq:
		st := s.locks[r.Name]
		if st == nil {
			st = &state{readers: make(map[cluster.CoreID]int)}
			s.locks[r.Name] = st
		}
		if s.grantable(st, r.Mode) {
			s.grant(st, request{core: src, mode: r.Mode})
			return acquireResp{Granted: true}, nil
		}
		st.queue = append(st.queue, request{core: src, mode: r.Mode})
		return acquireResp{Granted: false}, nil
	case releaseReq:
		st := s.locks[r.Name]
		if st == nil {
			return nil, fmt.Errorf("lock: release of unknown lock %q", r.Name)
		}
		if st.writer && st.writerCore == src {
			st.writer = false
			st.written = true
		} else if st.readers[src] > 0 {
			st.readers[src]--
			if st.readers[src] == 0 {
				delete(st.readers, src)
			}
		} else {
			return nil, fmt.Errorf("lock: core %d releases %q without holding it", src, r.Name)
		}
		s.drain(r.Name, st)
		return nil, nil
	default:
		return nil, fmt.Errorf("lock: unknown request type %T", req)
	}
}

// grantable reports whether a request could be satisfied immediately.
// Writers respect FIFO with the queue; readers additionally wait for the
// first write release (the DataSpaces gating) but never block writers.
func (s *Service) grantable(st *state, m Mode) bool {
	if m == Write {
		for _, q := range st.queue {
			if q.mode == Write {
				return false // FIFO among writers
			}
		}
		return !st.writer && len(st.readers) == 0
	}
	if !st.written || st.writer {
		return false
	}
	// FIFO with queued requests that are themselves grantable now: a
	// queued reader only waits because of gating or a writer, both already
	// checked; a queued writer must go first.
	for _, q := range st.queue {
		if q.mode == Write {
			return false
		}
	}
	return true
}

// grant records a holder.
func (s *Service) grant(st *state, r request) {
	if r.mode == Write {
		st.writer = true
		st.writerCore = r.core
	} else {
		st.readers[r.core]++
	}
}

// drain grants queued requests that have become compatible. While the
// name is unwritten, queued writers overtake queued readers (readers are
// gated); afterwards the queue is served FIFO with reader batching.
func (s *Service) drain(name string, st *state) {
	for len(st.queue) > 0 {
		head := st.queue[0]
		if head.mode == Read && !st.written {
			// Gated reader: let the first queued writer overtake.
			wi := -1
			for i, q := range st.queue {
				if q.mode == Write {
					wi = i
					break
				}
			}
			if wi == -1 {
				return // only gated readers; wait for a writer
			}
			if st.writer || len(st.readers) > 0 {
				return
			}
			w := st.queue[wi]
			st.queue = append(st.queue[:wi], st.queue[wi+1:]...)
			s.grant(st, w)
			s.notify(name, w)
			return
		}
		if head.mode == Write {
			if st.writer || len(st.readers) > 0 {
				return
			}
			st.queue = st.queue[1:]
			s.grant(st, head)
			s.notify(name, head)
			return
		}
		if st.writer {
			return
		}
		st.queue = st.queue[1:]
		s.grant(st, head)
		s.notify(name, head)
	}
}

// notify delivers a grant message to a waiting client.
func (s *Service) notify(name string, r request) {
	m := transport.Meter{Phase: "lock:" + name, Class: cluster.Control, DstApp: 0}
	// Best effort: a closed endpoint means the waiter is gone.
	_ = s.fabric.Endpoint(s.home).Send(r.core, grantTag, []byte(name), m)
}

// Client is a per-core handle on the lock service.
type Client struct {
	svc *Service
	ep  *transport.Endpoint
}

// ClientAt binds a lock client to a core.
func (s *Service) ClientAt(c cluster.CoreID) *Client {
	return &Client{svc: s, ep: s.fabric.Endpoint(c)}
}

// Acquire blocks until the named lock is held in the requested mode.
func (cl *Client) Acquire(name string, mode Mode) error {
	m := transport.Meter{Phase: "lock:" + name, Class: cluster.Control, DstApp: 0}
	resp, err := cl.ep.Call(cl.svc.home, serviceName, acquireReq{Name: name, Mode: mode}, m,
		int64(len(name))+9, 1)
	if err != nil {
		return err
	}
	if resp.(acquireResp).Granted {
		return nil
	}
	// Wait for the grant notification for this lock name. Grants are
	// matched from any source because redelivered grants (below) carry the
	// local core as sender.
	for {
		msg, err := cl.ep.Recv(transport.AnySource, grantTag)
		if err != nil {
			return err
		}
		if string(msg.Payload) == name {
			return nil
		}
		// A grant for a different lock this core also waits on (possible
		// with interleaved goroutines sharing a core handle): not ours —
		// but grants are per-request, so simply ignoring would lose it.
		// Redeliver to self.
		if err := cl.ep.Send(cl.ep.Core(), grantTag, msg.Payload, m); err != nil {
			return err
		}
	}
}

// AcquireRead takes the lock shared.
func (cl *Client) AcquireRead(name string) error { return cl.Acquire(name, Read) }

// AcquireWrite takes the lock exclusive.
func (cl *Client) AcquireWrite(name string) error { return cl.Acquire(name, Write) }

// Release drops the calling core's hold on the lock.
func (cl *Client) Release(name string) error {
	m := transport.Meter{Phase: "lock:" + name, Class: cluster.Control, DstApp: 0}
	_, err := cl.ep.Call(cl.svc.home, serviceName, releaseReq{Name: name}, m,
		int64(len(name))+8, 1)
	return err
}
