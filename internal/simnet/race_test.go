//go:build race

package simnet

// raceEnabled reports a -race build, whose sync.Pool drops buffers at
// random, so allocation counts of pooled paths vary run to run.
const raceEnabled = true
