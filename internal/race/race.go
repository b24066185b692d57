//go:build race

// Package race reports whether the binary was built with -race. The race
// detector's sync.Pool drops pooled objects at random and its runtime
// allocates on paths that otherwise do not, so allocation counts vary
// from run to run; tests skip their allocation-count assertions when
// Enabled is set, as the standard library's do.
package race

// Enabled is true in a -race build.
const Enabled = true
