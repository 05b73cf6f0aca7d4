package tcpnet

import "time"

// The package's test helpers, for its external tests (package tcpnet_test),
// which build their rigs with internal/node — a package that imports this
// one.
const RaceEnabled = raceEnabled

var FillCells = fillCells

// MaxFreeBodies is the bound on a serving node's free list of expose
// bodies.
const MaxFreeBodies = maxFreeBodies

// FreeBodyBytes is the bytes b's free list of expose bodies holds.
func FreeBodyBytes(b *Backend) int {
	b.bodies.mu.Lock()
	defer b.bodies.mu.Unlock()
	return b.bodies.freeBytes
}

// withIOTimeout gives b the I/O timeout d in place of ioTimeout, so that a
// test of a hung node or a stalled write fails in milliseconds. It must
// run before b dials or serves.
func withIOTimeout(b *Backend, d time.Duration) *Backend {
	b.timeout = d
	return b
}
