//go:build race

package bench

// raceEnabled reports that the race detector is on: the executed workflows
// then run ten or more times slower, so the slowest rows are left to the
// plain run.
const raceEnabled = true
