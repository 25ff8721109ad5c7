//go:build race

package experiments

// raceEnabled reports that the race detector is on: its shadow allocations
// make runtime.MemStats deltas meaningless.
const raceEnabled = true
