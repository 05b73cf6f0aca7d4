//go:build race

package tcpnet

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is put back, so allocation budgets cannot be asserted.
const raceEnabled = true
