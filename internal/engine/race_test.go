//go:build race

package engine

// The race detector's instrumentation allocates, so allocation
// ceilings are only meaningful in a normal build.
func init() { raceEnabled = true }
