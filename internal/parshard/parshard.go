// Package parshard provides the shared deterministic work-sharding
// machinery behind HumMer's parallel phases: duplicate detection's
// measure precomputation and per-row pair scoring, and DUMAS's
// precomputation, per-left-row tuple scoring and per-cell field-matrix
// averaging.
//
// # The canonical-order determinism contract
//
// Every parallel phase in this codebase obeys one rule: parallelism is
// a wall-clock knob, never a semantics knob. The result of a run must
// be byte-identical at every worker count. parshard has one primitive
// for it: RangesContext splits a [0, n) index space into contiguous
// shards, one per worker. Callers write only shard-local or per-index
// state inside the callback; cross-shard reductions are returned per
// shard and folded by the caller in shard order (or must be
// order-insensitive, like integer counts, set unions, min/max). Every
// candidate strategy of dupdetect and dumas is a per-row partner
// enumeration over such row shards.
//
// Run is the one other entry point: it drains a generator into
// fixed-size chunks and runs the chunk index space through
// RangesContext, folding chunk results in chunk order, so its result
// depends on the chunk size alone. No product path calls it: it
// stays, signature unchanged, because the benchmark's dispatch-cost
// probe pins it until ROADMAP item 4b moves the benchmark off internal
// symbols.
//
// Anything order-sensitive (float accumulation, slice append) must
// happen either per item/cell or in the deterministic fold — never
// across items inside a shared accumulator.
//
// # Cancellation
//
// RangesContext checks its context before dispatch, and long shard
// loops poll Canceled between rows: a run either completes —
// producing the byte-identical canonical result — or aborts with the
// context's error, and the caller discards whatever the shards wrote.
// There is no partial output, so cancellation can never bend
// determinism. Every shard goroutine is joined before the call
// returns: a cancelled run leaks nothing.
//
// # Fault containment
//
// Every shard recovers panics at its boundary and converts them into a
// *fault.InternalError returned from the call; the run aborts exactly
// like a cancellation (join, no partial result) and the process
// survives. A shard is a worker: it fires and reports
// faultinject.SiteParshardWorker. Run, which has no error return,
// re-panics the already-contained error so the next boundary up
// re-recovers the same value without double-counting.
package parshard

import (
	"context"
	"runtime"
	"sync"

	"hummer/internal/fault"
	"hummer/internal/faultinject"
)

// DefaultChunk is Run's default number of items per work unit.
const DefaultChunk = 1024

// Workers resolves a Parallelism configuration value: zero or negative
// means GOMAXPROCS.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// Gen streams work items in the caller's canonical order. It stops
// early when yield returns false.
type Gen[T any] func(yield func(T) bool)

// Run drains gen on the calling goroutine into chunks of chunkSize
// items (chunkSize <= 0 selects DefaultChunk) and processes the chunks
// over RangesContext shards with a background context: it cannot be
// cancelled.
//
// newWorker is called once per shard and returns the shard's
// processing function, giving it a place to hold private scratch
// state. The processing function consumes one item, accumulating into
// its chunk's result. merge folds the chunk results in chunk order, so
// the result is the same at every worker count. A fault contained
// inside the run is re-panicked (it is already a *fault.InternalError,
// so the next recovery boundary passes it through unchanged).
func Run[T, R any](workers, chunkSize int, gen Gen[T], newWorker func() func(item T, out *R), merge func(into *R, chunk R)) R {
	if chunkSize <= 0 {
		chunkSize = DefaultChunk
	}
	var chunks [][]T
	cur := make([]T, 0, chunkSize)
	gen(func(item T) bool {
		if len(cur) == chunkSize {
			chunks = append(chunks, cur)
			cur = make([]T, 0, chunkSize)
		}
		cur = append(cur, item)
		return true
	})
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	results := make([]R, len(chunks))
	err := RangesContext(context.Background(), workers, len(chunks), func(_, lo, hi int) {
		proc := newWorker()
		for c := lo; c < hi; c++ {
			for _, item := range chunks[c] {
				proc(item, &results[c])
			}
		}
	})
	if err != nil {
		// The background context never cancels, so any error here is a
		// contained fault; rethrow it across this error-less API.
		panic(fault.NewInternal(faultinject.SiteParshardWorker, err))
	}
	var out R
	for _, r := range results {
		merge(&out, r)
	}
	return out
}

// RangesContext splits [0, n) into at most `workers` contiguous,
// near-equal shards and runs fn concurrently, once per shard, waiting
// for all to finish. fn receives the shard index (0-based, in range
// order) and the half-open [lo, hi) bounds. With workers <= 1 (or n
// too small to split) fn runs inline exactly once with the full range.
//
// Determinism contract: fn must only write per-index state (slots
// [lo, hi) of shared slices) or shard-local state keyed by the shard
// index; the caller folds any shard-local reductions afterwards, in
// shard order.
//
// Cancellation: the context is checked before dispatch, and fn should
// additionally poll Canceled(ctx) inside long per-row loops and bail
// early. Every shard goroutine is joined before the call returns; when
// it returns a non-nil error the caller must discard whatever the
// shards wrote.
func RangesContext(ctx context.Context, workers, n int, fn func(shard, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > n {
		workers = n
	}
	// runShard is the per-shard recovery boundary: a panic in fn fails
	// the run, never the process.
	runShard := func(shard, lo, hi int) (err error) {
		defer fault.Capture(faultinject.SiteParshardWorker, &err)
		if err := faultinject.Hit(faultinject.SiteParshardWorker); err != nil {
			return err
		}
		fn(shard, lo, hi)
		return nil
	}
	if workers <= 1 {
		if err := runShard(0, 0, n); err != nil {
			return err
		}
		return ctx.Err()
	}
	var failMu sync.Mutex
	var failErr error
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo := s * n / workers
		hi := (s + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			// Containment backstop: runShard captures fn's panics, so
			// this only fires for plumbing bugs around it — which must
			// still fail the run, not the process.
			defer func() {
				if r := recover(); r != nil {
					failMu.Lock()
					if failErr == nil {
						failErr = fault.NewInternal(faultinject.SiteParshardWorker, r)
					}
					failMu.Unlock()
				}
			}()
			if err := runShard(s, lo, hi); err != nil {
				failMu.Lock()
				if failErr == nil {
					failErr = err
				}
				failMu.Unlock()
			}
		}(s, lo, hi)
	}
	wg.Wait()
	if failErr != nil {
		return failErr
	}
	return ctx.Err()
}

// CancelStride is the shared poll interval for long shard loops: a
// shard should check Canceled every CancelStride rows (or cells).
// Small enough for prompt aborts, large enough that the poll is
// invisible next to per-row work — one constant so every phase
// retunes together.
const CancelStride = 128

// Canceled reports whether ctx is done — the poll long shard loops use
// to bail out early between rows (every CancelStride iterations).
func Canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
