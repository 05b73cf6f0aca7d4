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

// ProbeLease performs one lease probe/renewal round trip against node,
// asserting the incarnation the lease was granted under (0 skips the
// assertion). It returns the incarnation the serving process reports. An
// error means the node is unreachable, not serving, or serving under a
// different incarnation — in every case the lease must not be renewed.
func (b *Backend) ProbeLease(node cluster.NodeID, inc uint64) (uint64, error) {
	resp, err := b.roundTrip(node, &frame{Op: opLease, Dst: int32(node), Tag: inc})
	if err != nil {
		return 0, err
	}
	if err := respErr(resp); err != nil {
		return 0, err
	}
	return resp.Tag, nil
}
