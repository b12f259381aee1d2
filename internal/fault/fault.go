// Package fault is hummerd's fault-containment substrate: the typed
// error a recovered panic becomes, the recovery helpers every
// goroutine boundary uses, and the process-wide count of panics
// contained.
//
// # The containment contract
//
// A long-lived query service must treat a panic the way it treats any
// other per-query failure: one bad query degrades one query, never the
// process. Every goroutine the query pipeline starts — parshard
// shards, the streaming-Rows producer, qcache
// singleflight leaders, HTTP handlers — recovers at its boundary and
// converts the panic into an *InternalError carrying the recovered
// value and the stack captured at the recovery point. The query fails
// with that error; the process, the DB and every concurrent query are
// untouched, and the next identical query must produce the
// byte-identical result of an unfaulted run.
//
// Containment composes: a panic contained deep in a worker pool
// surfaces as an InternalError return, and if an upper layer re-panics
// it (parshard.Run has no error return), the next boundary re-recovers
// the *same* InternalError without double-wrapping or double-counting.
package fault

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// InternalError is a recovered panic in typed form: proof that fault
// containment fired, carrying everything a postmortem needs. It is the
// error a query fails with when any of its goroutines panicked; hummerd
// maps it to HTTP 500 (or an "error" NDJSON trailer mid-stream).
type InternalError struct {
	// Site names the goroutine boundary that recovered the panic,
	// e.g. "parshard.worker" or "qcache.leader.compute".
	Site string
	// Recovered is the value the panic carried.
	Recovered any
	// Stack is the goroutine stack captured at the recovery point —
	// the panic site is near its top.
	Stack []byte
}

// Error renders the site and the panic value; the stack is kept for
// logs, not the message (error strings reach API clients).
func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error: panic at %s: %v", e.Site, e.Recovered)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As see through the containment (e.g. an injected fault).
func (e *InternalError) Unwrap() error {
	if err, ok := e.Recovered.(error); ok {
		return err
	}
	return nil
}

// recovered counts panics converted to InternalErrors process-wide —
// the hummer_panics_recovered_total metric. Process-global on purpose:
// containment fires in layers that know nothing about servers or DBs,
// and a monotone counter needs no scoping to be useful.
var recovered atomic.Uint64

// Recovered returns the number of panics contained so far.
func Recovered() uint64 { return recovered.Load() }

// NewInternal converts a recovered panic value into an *InternalError,
// counting it. A value that already is an *InternalError (a contained
// panic re-thrown across a boundary without an error return) passes
// through unchanged — one fault, one error, one count.
func NewInternal(site string, r any) *InternalError {
	if ie, ok := r.(*InternalError); ok {
		return ie
	}
	recovered.Add(1)
	return &InternalError{Site: site, Recovered: r, Stack: debug.Stack()}
}

// Capture is the deferred recovery helper for functions with an error
// return:
//
//	func work() (err error) {
//	    defer fault.Capture("mypkg.work", &err)
//	    ...
//	}
//
// A panic is converted to an *InternalError stored in *errp (replacing
// any error already there — the panic is the more urgent truth); a
// normal return leaves *errp alone.
func Capture(site string, errp *error) {
	if r := recover(); r != nil {
		*errp = NewInternal(site, r)
	}
}
