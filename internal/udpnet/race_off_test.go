//go:build !race

package udpnet_test

const raceEnabled = false
