//go:build race

package mtp

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of all Puts on purpose, so allocation budgets do not hold.
const raceEnabled = true
