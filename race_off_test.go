//go:build !race

package mtp

const raceEnabled = false
