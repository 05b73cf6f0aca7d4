package tcpnet

import (
	"sync"

	"github.com/insitu/cods/internal/obs"
)

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
// segment pins the block it is clipped from from its LocalRead until its
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
// LocalRead), so a withdrawal cannot slip between the read and the pin.
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
