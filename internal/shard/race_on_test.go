//go:build race

package shard

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of all Puts on purpose, so per-packet allocation budgets that rest
// on one do not hold.
const raceEnabled = true
