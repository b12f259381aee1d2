// Package testutil holds helpers shared by the repo's test suites.
//
// The goroutine-leak checker lives here so every package that spawns
// workers (parshard, batch statements, the HTTP server, qcache leaders)
// asserts the same contract the same way: after a test's pipelines
// finish — successfully, cancelled, or panicked-and-contained — the
// goroutine count settles back to where it started.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// settleDeadline bounds how long WaitForGoroutines polls before
// declaring a leak. Generous because CI boxes stall; leaks fail fast
// in practice since a leaked goroutine never exits.
const settleDeadline = 3 * time.Second

// WaitForGoroutines polls until the process goroutine count settles
// at or below limit, failing the test if it does not within the
// deadline. Call with a count captured before the work under test
// plus a small slack (the runtime keeps a few service goroutines).
func WaitForGoroutines(t testing.TB, limit int) {
	t.Helper()
	deadline := time.Now().Add(settleDeadline)
	for {
		if n := runtime.NumGoroutine(); n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), limit, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// CheckGoroutineLeaks snapshots the goroutine count now and registers
// a cleanup that fails the test if the count has not settled back to
// the snapshot (plus slack for runtime service goroutines) by the end
// of the test. Call it first thing in a test that spawns workers.
func CheckGoroutineLeaks(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		WaitForGoroutines(t, before+2)
	})
}
