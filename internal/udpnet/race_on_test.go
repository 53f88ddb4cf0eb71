//go:build race

package udpnet_test

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of all Puts on purpose, so per-packet allocation budgets do not hold.
const raceEnabled = true
