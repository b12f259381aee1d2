// Package parshard provides the shared deterministic work-sharding
// machinery behind HumMer's parallel phases (duplicate detection's
// measure precomputation and pair scoring, DUMAS's precomputation,
// tuple-pair scoring and per-cell field-matrix averaging).
//
// # The canonical-order determinism contract
//
// Every parallel phase in this codebase obeys one rule: parallelism is
// a wall-clock knob, never a semantics knob. The result of a run must
// be byte-identical at every worker count. parshard encodes the two
// patterns that make this cheap to guarantee:
//
//   - RunContext consumes a generator that streams work items in a
//     canonical order fixed by the caller (row-major pairs, sorted
//     block keys, …). The stream is cut into fixed-size chunks; chunk
//     boundaries and within-chunk order are functions of the canonical
//     order alone, so after workers process chunks concurrently the
//     chunk results can be folded back in chunk-index order, restoring
//     exactly the sequential output — including the order of any
//     slices the chunks append to and the floating-point accumulation
//     order of any sums. Run is RunContext with a background context.
//     In the product its callers are the key-based candidate
//     strategies only: dupdetect's Window, Blocking and QGrams pair
//     scoring and dumas's Window and QGrams tuple-pair scoring.
//
//   - RangesContext splits a [0, n) index space into contiguous
//     shards, one per worker. Callers must write only shard-local or
//     per-index state inside the callback; cross-shard reductions are
//     returned per shard and folded by the caller in shard order (or
//     must be order-insensitive, like integer counts, set unions,
//     min/max). It runs every default path: dupdetect's measure
//     precomputation and folded exhaustive pair scoring, and dumas's
//     precomputation, posting-list tuple scoring and field matrix.
//
// Anything order-sensitive (float accumulation, slice append) must
// happen either per item/cell or in the deterministic fold — never
// across items inside a shared accumulator.
//
// # Cancellation
//
// RunContext and RangesContext accept a context and check it
// cooperatively at chunk (respectively shard) boundaries: a run either
// completes — producing the byte-identical canonical result — or
// aborts with the context's error and no result at all. There is no
// partial output, so cancellation can never bend determinism. On
// abort every worker goroutine, the generator goroutine and the
// collector are joined before the call returns: a cancelled run leaks
// nothing.
//
// # Fault containment
//
// Every goroutine parshard starts — workers, the generator, the
// shards of RangesContext — recovers panics at its boundary and
// converts them into a *fault.InternalError returned from the call;
// the run aborts exactly like a cancellation (drain, join, no partial
// result) and the process survives. A RangesContext shard is a
// worker: it fires and reports faultinject.SiteParshardWorker. Run,
// which has no error return, re-panics the already-contained error so
// the next boundary up re-recovers the same value without
// double-counting.
package parshard

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"hummer/internal/fault"
	"hummer/internal/faultinject"
)

// DefaultChunk is the default number of items per work unit: large
// enough to amortize channel traffic, small enough to keep all workers
// busy on mid-sized inputs.
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

// Run consumes gen with the given number of worker goroutines and
// returns the folded result. It is RunContext with a background
// context: it cannot be cancelled. A fault contained inside the run is
// re-panicked (it is already a *fault.InternalError, so the next
// recovery boundary passes it through unchanged).
func Run[T, R any](workers, chunkSize int, gen Gen[T], newWorker func() func(item T, out *R), merge func(into *R, chunk R)) R {
	out, err := RunContext(context.Background(), workers, chunkSize, gen, newWorker, merge)
	if err != nil {
		// The background context never cancels, so any error here is a
		// contained fault; rethrow it across this error-less API.
		panic(fault.NewInternal(faultinject.SiteParshardWorker, err))
	}
	return out
}

// RunContext consumes gen with the given number of worker goroutines
// and returns the folded result.
//
// newWorker is called once per worker and returns the worker's
// processing function, giving each worker a place to hold private
// scratch state (reusable buffers, similarity scratch, …). The
// processing function consumes one item, accumulating into the current
// chunk's result.
//
// merge folds one chunk result into the running total; it is called in
// chunk-index order, i.e. in the canonical stream order. A
// single-worker run may skip merge entirely and return the lone
// accumulated result directly, so merge must be a pure fold with no
// side effects beyond *into.
//
// ctx is checked at chunk boundaries. When it is cancelled the run
// stops streaming, drains and joins every goroutine it started, and
// returns the zero R with ctx's error; the caller must discard any
// state the generator or workers touched. A nil error means the run
// completed and the result is the canonical (sequential-identical)
// fold.
//
// chunkSize <= 0 selects DefaultChunk.
func RunContext[T, R any](ctx context.Context, workers, chunkSize int, gen Gen[T], newWorker func() func(item T, out *R), merge func(into *R, chunk R)) (R, error) {
	var zero R
	if chunkSize <= 0 {
		chunkSize = DefaultChunk
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if workers <= 1 {
		var out R
		var ctxErr, injErr error
		err := func() (err error) {
			defer fault.Capture(faultinject.SiteParshardWorker, &err)
			proc := newWorker()
			n := 0
			gen(func(item T) bool {
				// Cooperative check once per chunk-sized run of items,
				// mirroring the parallel path's abort granularity.
				if n%chunkSize == 0 {
					if ctxErr = ctx.Err(); ctxErr != nil {
						return false
					}
					if injErr = faultinject.Hit(faultinject.SiteParshardWorker); injErr != nil {
						return false
					}
				}
				n++
				proc(item, &out)
				return true
			})
			return nil
		}()
		switch {
		case err != nil:
			return zero, err
		case injErr != nil:
			return zero, injErr
		case ctxErr != nil:
			return zero, ctxErr
		}
		return out, nil
	}

	type chunk struct {
		idx   int
		items []T
	}
	type indexed struct {
		idx int
		res R
	}
	jobs := make(chan chunk, workers)
	results := make(chan indexed, workers)
	bufPool := sync.Pool{New: func() any {
		buf := make([]T, 0, chunkSize)
		return &buf
	}}

	// failErr records the first contained fault (a recovered panic or
	// an injected error) from any goroutine of the run. Once set, the
	// run aborts like a cancellation: the generator stops streaming and
	// the workers stop scoring but keep draining, so every send
	// completes and every goroutine joins.
	var failMu sync.Mutex
	var failErr error
	setFail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
		}
		failMu.Unlock()
	}
	getFail := func() error {
		failMu.Lock()
		defer failMu.Unlock()
		return failErr
	}

	// Generator: stream the canonical order into chunks. The send
	// selects on ctx so a cancelled run never wedges the generator;
	// genDone lets the caller join it before returning (the generator
	// may still be inside gen — sorting, building block maps — when the
	// workers have already drained everything). Deferred LIFO: a panic
	// inside gen is recovered first, then jobs closes (releasing the
	// workers), then genDone.
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		defer close(jobs)
		defer func() {
			if r := recover(); r != nil {
				setFail(fault.NewInternal(faultinject.SiteParshardGenerator, r))
			}
		}()
		idx := 0
		buf := bufPool.Get().(*[]T)
		aborted := false
		gen(func(item T) bool {
			*buf = append(*buf, item)
			if len(*buf) == chunkSize {
				if getFail() != nil {
					aborted = true
					return false
				}
				if err := faultinject.Hit(faultinject.SiteParshardGenerator); err != nil {
					setFail(err)
					aborted = true
					return false
				}
				select {
				case jobs <- chunk{idx: idx, items: *buf}:
				case <-ctx.Done():
					aborted = true
					return false
				}
				idx++
				buf = bufPool.Get().(*[]T)
				*buf = (*buf)[:0]
			}
			return true
		})
		if len(*buf) > 0 && !aborted && ctx.Err() == nil && getFail() == nil {
			select {
			case jobs <- chunk{idx: idx, items: *buf}:
			case <-ctx.Done():
			}
		}
	}()

	// runChunk scores one chunk behind a recovery boundary, so a panic
	// in the caller's processing function fails the run instead of the
	// process.
	runChunk := func(proc func(item T, out *R), items []T) (out R, err error) {
		defer fault.Capture(faultinject.SiteParshardWorker, &err)
		if err := faultinject.Hit(faultinject.SiteParshardWorker); err != nil {
			return out, err
		}
		for _, item := range items {
			proc(item, &out)
		}
		return out, nil
	}
	// makeWorker guards newWorker (caller code) the same way.
	makeWorker := func() (proc func(item T, out *R), err error) {
		defer fault.Capture(faultinject.SiteParshardWorker, &err)
		return newWorker(), nil
	}

	// Workers: process chunks with per-worker state; once the context
	// is cancelled or a fault is recorded they stop scoring but keep
	// draining jobs so the generator's sends always complete.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Containment backstop for the drain loop itself: scoring
			// panics are already captured per-chunk in runChunk, but a
			// panic in the surrounding channel/pool plumbing must also
			// become a fault — and this worker must keep draining jobs
			// afterwards, or the generator's sends could block forever.
			defer func() {
				if r := recover(); r != nil {
					setFail(fault.NewInternal(faultinject.SiteParshardWorker, r))
					for ch := range jobs {
						buf := ch.items[:0]
						bufPool.Put(&buf)
					}
				}
			}()
			proc, perr := makeWorker()
			if perr != nil {
				setFail(perr)
			}
			for ch := range jobs {
				if perr != nil || ctx.Err() != nil || getFail() != nil {
					buf := ch.items[:0]
					bufPool.Put(&buf)
					continue
				}
				out, err := runChunk(proc, ch.items)
				buf := ch.items[:0]
				bufPool.Put(&buf)
				if err != nil {
					setFail(err)
					continue
				}
				results <- indexed{idx: ch.idx, res: out}
			}
		}()
	}
	// Join-only goroutine: wg.Wait and close cannot panic, and a
	// containment defer here would convert any latent bug into a
	// silent collector hang instead of a loud crash.
	//lint:ignore hummer/containment join-only body (wg.Wait + close); capturing would trade a loud panic for a wedged collector
	go func() {
		wg.Wait()
		close(results)
	}()

	// Fold deterministically: chunk order restores the canonical
	// stream order. The collector always drains to close so the worker
	// sends (buffered at cap workers) can never block forever.
	var chunks []indexed
	for r := range results {
		chunks = append(chunks, r)
	}
	<-genDone
	if err := getFail(); err != nil {
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].idx < chunks[j].idx })
	var merged R
	for _, c := range chunks {
		merge(&merged, c.res)
	}
	return merged, nil
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
