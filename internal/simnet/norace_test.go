//go:build !race

package simnet

const raceEnabled = false
