package plan

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync/atomic"
	"time"

	"hummer/internal/core"
	"hummer/internal/engine"
	"hummer/internal/fault"
	"hummer/internal/faultinject"
	"hummer/internal/lineage"
	"hummer/internal/obs"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/sql"
	"hummer/internal/value"
)

// streamChunkRows is how many rows a stream producer batches per
// channel send: large enough that channel synchronization vanishes
// next to per-row work, small enough that the consumer's working set
// stays a few KB and time-to-first-row stays low.
const streamChunkRows = 64

// streamEvent is one message from a stream's producer goroutine. The
// first event is always the schema (or nothing, when the statement
// fails before producing one — the failure then travels out-of-band,
// published before the channel closes). Later events carry row chunks.
type streamEvent struct {
	schema *schema.Schema
	rows   []relation.Row
	lins   [][]lineage.Set // aligned with rows; nil when absent
}

// Rows is a streaming cursor over one statement's result, the
// incremental alternative to QueryResult's all-at-once table:
//
//	rows, err := e.StreamContext(ctx, q, plan.ExecOptions{})
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    row := rows.Row()
//	    ...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Plain SELECT statements stream genuinely: rows leave the Volcano
// operator tree in chunks as the scan advances, and a cancelled
// context stops the scan mid-flight. Fusion statements must compute
// the complete fused table before the first row exists (fusion groups
// globally), but the result is then emitted in chunks without the
// caller ever holding a second materialized copy — and a warm
// fused-cache hit streams straight from the slim cached entry. A
// drained stream yields exactly the rows, in exactly the order, of the
// equivalent QueryContext call.
//
// A Rows is not safe for concurrent use. Close must be called (All
// does it automatically); abandoning a Rows without Close leaks its
// producer goroutine until the parent context ends.
type Rows struct {
	cancel context.CancelFunc
	events chan streamEvent
	// earlyClose is set by Close before it cancels the producer, so
	// the producer can tell a deliberate Close (not an error) from an
	// external cancellation (one). Atomic: Close's store and the
	// producer's load race only across the ctx-done synchronization.
	earlyClose atomic.Bool

	// Producer-owned until events is closed (the close is the
	// happens-before edge): the terminal error and the fusion summary.
	prodErr     error
	prodSummary *core.Summary

	schema  *schema.Schema
	cur     []relation.Row
	curLins [][]lineage.Set
	pos     int
	row     relation.Row
	rowLin  []lineage.Set
	err     error
	drained bool
	closed  bool

	// emitted counts rows this stream's producer has handed to the
	// event channel. Producer-owned while the stream is live; the
	// channel close publishes it, so Emitted is valid after the end.
	emitted int
}

// Emitted reports how many rows this stream's producer emitted into
// the producer→consumer buffer. Valid once the stream has ended (Next
// returned false, or after Close); a live stream's count is racy and
// deliberately not exposed.
func (r *Rows) Emitted() int {
	if r.drained || r.closed {
		return r.emitted
	}
	return 0
}

// StreamContext parses the statement and starts executing it in a
// producer goroutine, returning a cursor over the result rows. Parse
// errors are reported synchronously; execution errors surface through
// Columns, Next and Err. opt applies as in QueryWith — NoLineage stops
// per-row lineage from being attached, Timeout bounds the whole
// stream's lifetime, and Trace is accepted but useless here (a stream
// exposes no Pipeline; it only forces the fused-tier bypass).
func (e *Executor) StreamContext(ctx context.Context, q string, opt ExecOptions) (*Rows, error) {
	if e.Repo == nil {
		return nil, fmt.Errorf("plan: executor has no repository")
	}
	pctx, psp := obs.StartSpan(ctx, "plan")
	stmt, err := e.parse(pctx, q)
	psp.End()
	if err != nil {
		return nil, err
	}
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	r := &Rows{cancel: cancel, events: make(chan streamEvent, 1)}
	go r.produce(ctx, e, stmt, q, opt)
	return r, nil
}

// produce executes the statement and feeds the event channel. Every
// send gives up when ctx is cancelled (Close cancels it), so the
// producer can never outlive an abandoned-then-closed stream; its
// final act is always to publish the terminal state and close the
// channel — the consumer's join point. The producer goroutine is a
// containment boundary: a panic anywhere in execution becomes the
// stream's terminal *fault.InternalError, published before the close,
// never a process crash.
func (r *Rows) produce(ctx context.Context, e *Executor, stmt *sql.Stmt, q string, opt ExecOptions) {
	defer close(r.events)
	// Backstop for the span/option bookkeeping around the captured
	// execution below: a panic there must still become the stream's
	// terminal error (published via prodErr before the deferred close
	// releases the consumer), never a process crash.
	defer func() {
		if rec := recover(); rec != nil {
			r.prodErr = fault.NewInternal(faultinject.SitePlanStream, rec)
		}
	}()
	// The stream span covers execution plus the full drain: its
	// duration is the stream's wall time as the consumer experienced
	// it, with the execution sub-spans (cache.fused, pipeline, ...)
	// nested under it. The handler publishes the trace only after
	// joining this goroutine, so the span tree is quiescent by then.
	sctx, sp := obs.StartSpan(ctx, "stream")
	err := func() (err error) {
		defer fault.Capture(faultinject.SitePlanStream, &err)
		if err := faultinject.Hit(faultinject.SitePlanStream); err != nil {
			return err
		}
		return r.run(sctx, e, stmt, q, opt)
	}()
	sp.SetInt("rows", r.emitted)
	sp.End()
	if err != nil && r.earlyClose.Load() && errors.Is(err, context.Canceled) {
		// The consumer closed the stream on purpose; the resulting
		// cancellation is a clean shutdown, not a failure.
		err = nil
	}
	r.prodErr = err
	if opt.OnFinish != nil {
		opt.OnFinish(r.prodSummary, err)
	}
}

// run does the actual execution; its error return becomes the
// stream's terminal error.
func (r *Rows) run(ctx context.Context, e *Executor, stmt *sql.Stmt, q string, opt ExecOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Fused results stream from their finished table (fusion groups
	// globally, so no row exists before the pipeline ends); plain SELECT
	// streams from its operator tree. lin, aligned with the fused rows,
	// travels with each chunk; executeFusion already projected the
	// options, so under NoLineage it is nil (trimResult).
	var op engine.Operator
	var lin [][]lineage.Set
	if stmt.IsFusion() {
		res, err := e.executeFusion(ctx, stmt, q, opt)
		if err != nil {
			return err
		}
		r.prodSummary = res.Summary
		op, lin = engine.NewScan(res.Rel), res.Lineage
	} else {
		// share=false: the streaming path trades subtree sharing for
		// genuine row-at-a-time streaming — materializing a CSE
		// intermediate here would move time-to-first-row back to
		// time-to-last-row.
		var err error
		if op, err = e.buildPlain(ctx, stmt, false); err != nil {
			return err
		}
	}
	if err := op.Open(); err != nil {
		return err
	}
	if !r.send(ctx, streamEvent{schema: op.Schema()}) {
		return ctx.Err()
	}
	chunk := make([]relation.Row, 0, streamChunkRows)
	for n := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		row, ok := op.Next()
		if ok {
			chunk = append(chunk, row)
		}
		if (!ok && len(chunk) > 0) || len(chunk) == streamChunkRows {
			ev := streamEvent{rows: chunk}
			if lin != nil {
				ev.lins = lin[n : n+len(chunk)]
			}
			if !r.send(ctx, ev) {
				return ctx.Err()
			}
			n += len(chunk)
			chunk = make([]relation.Row, 0, streamChunkRows)
			// Chunk-boundary fault point: lets the harness fail a stream
			// mid-flight, after rows have already reached the consumer.
			if err := faultinject.Hit(faultinject.SitePlanStream); err != nil {
				return err
			}
		}
		if !ok {
			return nil
		}
	}
}

// queuedEvents counts stream events sitting in producer→consumer
// buffers across all live Rows: the backpressure gauge hummerd
// exports as hummer_stream_chunk_queue_depth. A persistently high
// depth means producers outrun consumers (slow clients holding
// materialized chunks); zero at rest proves streams drain fully.
var queuedEvents atomic.Int64

// producedRows counts rows emitted by stream producers into the
// producer→consumer buffers, across all streams over the process
// lifetime — the throughput companion to the queue-depth gauge,
// exported as hummer_stream_produced_rows_total.
var producedRows atomic.Uint64

// stallHist records how long producers spent blocked on a full event
// buffer waiting for the consumer — the direct measure of consumer
// backpressure (a slow client stalls its producer here). Only actual
// blocking is observed; an immediate send costs nothing.
var stallHist = obs.NewDurationHist(obs.StallBounds)

// StreamQueueDepth reports how many stream events are currently
// buffered between producers and consumers, summed over all live
// streams.
func StreamQueueDepth() int64 { return queuedEvents.Load() }

// StreamProducedRows reports the total rows emitted by stream
// producers process-wide.
func StreamProducedRows() uint64 { return producedRows.Load() }

// StreamStallSnapshot returns the consumer-stall-time histogram:
// every observation is one producer send that had to block on a full
// buffer, bucketed by how long it waited.
func StreamStallSnapshot() obs.HistSnapshot { return stallHist.Snapshot() }

// send delivers one event unless the stream's context ends first.
// A send that cannot complete immediately is a consumer stall; the
// time spent blocked is recorded whether or not the send eventually
// succeeds (a cancelled wait was still time lost to backpressure).
func (r *Rows) send(ctx context.Context, ev streamEvent) bool {
	select {
	case r.events <- ev:
	case <-ctx.Done():
		return false
	default:
		// Wall-clock reads here time consumer stalls for the
		// backpressure histogram only; they never touch row data, so
		// the byte-identity contract is unaffected.
		//lint:ignore hummer/determinism stall-metric timing only; never reaches result bytes
		t0 := time.Now()
		select {
		case r.events <- ev:
			//lint:ignore hummer/determinism stall-metric timing only; never reaches result bytes
			stallHist.Observe(time.Since(t0))
		case <-ctx.Done():
			//lint:ignore hummer/determinism stall-metric timing only; never reaches result bytes
			stallHist.Observe(time.Since(t0))
			return false
		}
	}
	queuedEvents.Add(1)
	if n := len(ev.rows); n > 0 {
		r.emitted += n
		producedRows.Add(uint64(n))
	}
	return true
}

// next receives one event, folding terminal state in when the channel
// closes. Returns false at end of stream (or after an error).
func (r *Rows) next() (streamEvent, bool) {
	ev, ok := <-r.events
	if ok {
		queuedEvents.Add(-1)
	}
	if !ok {
		if !r.drained {
			r.drained = true
			// The channel close ordered these producer writes before us.
			r.err = r.prodErr
		}
		return streamEvent{}, false
	}
	return ev, true
}

// Columns returns the result's column names, blocking until the
// statement has executed far enough to know them (for fusion
// statements: until the pipeline has run). It fails with the
// statement's error when execution dies before producing a schema —
// callers can therefore use it to distinguish "bad statement" from
// "streamable result" before consuming any rows.
func (r *Rows) Columns() ([]string, error) {
	if err := r.waitSchema(); err != nil {
		return nil, err
	}
	return r.schema.Names(), nil
}

// Schema is Columns with types: the full result schema.
func (r *Rows) Schema() (*schema.Schema, error) {
	if err := r.waitSchema(); err != nil {
		return nil, err
	}
	return r.schema, nil
}

func (r *Rows) waitSchema() error {
	for r.schema == nil {
		if r.closed {
			return fmt.Errorf("plan: stream is closed")
		}
		if r.err != nil {
			return r.err
		}
		ev, ok := r.next()
		if !ok {
			if r.err != nil {
				return r.err
			}
			return fmt.Errorf("plan: stream ended before a schema")
		}
		if ev.schema != nil {
			r.schema = ev.schema
		}
	}
	return nil
}

// Next advances to the next row, returning false at the end of the
// stream or on error (consult Err to tell the two apart).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for {
		if r.pos < len(r.cur) {
			r.row = r.cur[r.pos]
			if r.curLins != nil {
				r.rowLin = r.curLins[r.pos]
			} else {
				r.rowLin = nil
			}
			r.pos++
			return true
		}
		ev, ok := r.next()
		if !ok {
			return false
		}
		switch {
		case ev.schema != nil:
			r.schema = ev.schema
		default:
			r.cur, r.curLins, r.pos = ev.rows, ev.lins, 0
		}
	}
}

// Row returns the current row (valid until the next call to Next).
// Rows served from the fused cache tier are shared across queries:
// treat the row as read-only, or Clone it.
func (r *Rows) Row() relation.Row { return r.row }

// RowLineage returns the current row's per-cell lineage — fusion
// statements only, and only when the stream was not opened with
// NoLineage; nil otherwise.
func (r *Rows) RowLineage() []lineage.Set { return r.rowLin }

// Scan copies the current row into dest: one destination per column,
// each a *Value (the raw cell), *string (the cell's text), *int64,
// *float64, *bool, *time.Time (converted; NULL leaves the zero value)
// or *any (the cell's native Go form). nil destinations skip their
// column.
func (r *Rows) Scan(dest ...any) error {
	if r.row == nil {
		return fmt.Errorf("plan: Scan called without a current row")
	}
	if len(dest) != len(r.row) {
		return fmt.Errorf("plan: Scan got %d destinations for %d columns", len(dest), len(r.row))
	}
	for i, d := range dest {
		if d == nil {
			continue
		}
		v := r.row[i]
		switch p := d.(type) {
		case *value.Value:
			*p = v
		case *string:
			*p = v.Text()
		case *int64:
			if v.IsNull() {
				*p = 0
			} else if v.Kind() != value.KindInt {
				return fmt.Errorf("plan: Scan column %d is %v, not int", i, v.Kind())
			} else {
				*p = v.Int()
			}
		case *float64:
			if v.IsNull() {
				*p = 0
			} else if f, ok := v.AsFloat(); ok {
				*p = f
			} else {
				return fmt.Errorf("plan: Scan column %d is %v, not numeric", i, v.Kind())
			}
		case *bool:
			if v.IsNull() {
				*p = false
			} else if v.Kind() != value.KindBool {
				return fmt.Errorf("plan: Scan column %d is %v, not bool", i, v.Kind())
			} else {
				*p = v.Bool()
			}
		case *time.Time:
			if v.IsNull() {
				*p = time.Time{}
			} else if v.Kind() != value.KindTime {
				return fmt.Errorf("plan: Scan column %d is %v, not time", i, v.Kind())
			} else {
				*p = v.Time()
			}
		case *any:
			*p = nativeCell(v)
		default:
			return fmt.Errorf("plan: Scan destination %d has unsupported type %T", i, d)
		}
	}
	return nil
}

// nativeCell maps a Value to its native Go form: nil for NULL, int64,
// float64, bool, time.Time, else the string text.
func nativeCell(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindBool:
		return v.Bool()
	case value.KindTime:
		return v.Time()
	default:
		return v.Str()
	}
}

// Err returns the error that terminated the stream, if any. It is nil
// after a complete drain and nil after a deliberate early Close; a
// cancelled context or a failed pipeline surfaces here.
func (r *Rows) Err() error { return r.err }

// Summary returns the fusion summary once the stream has ended (after
// Next returned false or Close was called); nil for plain SQL and for
// streams that failed before the pipeline finished.
func (r *Rows) Summary() *core.Summary {
	if r.drained || r.closed {
		return r.prodSummary
	}
	return nil
}

// Close cancels the producer and releases the stream. It is
// idempotent, joins the producer goroutine, and never overwrites an
// error already reported by Next/Err.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.earlyClose.Store(true)
	r.cancel()
	// Drain to the producer's close — the join. Terminal state is
	// deliberately NOT folded in: an early Close is not an error.
	for range r.events {
		queuedEvents.Add(-1)
	}
	if !r.drained {
		r.drained = true
	}
	return nil
}

// All adapts the stream to a Go 1.23 range-over-func iterator,
// closing it when the loop ends:
//
//	for row, err := range rows.All() {
//	    if err != nil { ... }
//	    ...
//	}
//
// A terminal error is yielded as the final (nil, err) pair.
func (r *Rows) All() iter.Seq2[relation.Row, error] {
	return func(yield func(relation.Row, error) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.row, nil) {
				return
			}
		}
		if err := r.Err(); err != nil {
			yield(nil, err)
		}
	}
}
