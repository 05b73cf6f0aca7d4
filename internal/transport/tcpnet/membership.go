package tcpnet

import (
	"errors"

	"github.com/insitu/cods/internal/cluster"
)

// ErrStaleIncarnation marks a handshake against a peer process whose
// incarnation differs from the one this backend last observed: the node
// restarted behind the same address with empty endpoint state, or the
// route points at a replacement the membership layer has not installed
// yet. Dialing does not retry it — only UpdatePeer (driven by the
// membership reconcile loop) clears the condition.
var ErrStaleIncarnation = errors.New("tcpnet: peer incarnation changed")

// PeerIncarnation returns the incarnation this backend expects node to be
// serving under (0 = none recorded; any incarnation is accepted and
// recorded on first contact).
func (b *Backend) PeerIncarnation(node cluster.NodeID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peerInc[node]
}

// UpdatePeer installs a replacement identity for node: its new address
// (ignored when empty or when the node is the one this backend serves) and
// its new incarnation, flushing the node's connection pool either way.
func (b *Backend) UpdatePeer(node cluster.NodeID, addr string, inc uint64) {
	b.mu.Lock()
	if addr != "" && node != b.node {
		b.addrs[node] = addr
	}
	b.peerInc[node] = inc
	stale := b.pools[node]
	delete(b.pools, node)
	b.mu.Unlock()
	for _, c := range stale {
		c.Close()
	}
}
