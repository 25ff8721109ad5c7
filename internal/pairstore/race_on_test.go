//go:build race

package pairstore

// raceEnabled reports that the race detector is on: its shadow allocations
// make runtime.MemStats deltas meaningless.
const raceEnabled = true
