//go:build race

package transport

// raceEnabled reports that the race detector is on: it instruments
// allocations, so allocation budgets cannot be asserted.
const raceEnabled = true
