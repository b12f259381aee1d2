//go:build race

package server

// The race detector's instrumentation allocates, so allocation
// ceilings are only meaningful in a normal build.
func init() { raceEnabled = true }
