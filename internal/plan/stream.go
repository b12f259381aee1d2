package plan

import (
	"context"
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
	"hummer/internal/value"
)

// streamFaultStride is how many delivered rows separate two hits of
// the SitePlanStream fault point, so the harness can fail a stream
// mid-flight, after rows have already reached the consumer.
const streamFaultStride = 64

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
// Rows is a pull cursor over a Volcano operator tree: the statement
// executes on the goroutine that first calls Columns, Schema or Next,
// and each Next pulls one row. Plain SELECT statements stream
// genuinely — rows leave the tree as the scan advances, and a
// cancelled context stops the scan mid-flight. Fusion statements must
// compute the complete fused table before the first row exists
// (fusion groups globally); their tree is then a scan over that table,
// so the caller never holds a second materialized copy — and a warm
// fused-cache hit streams straight from the slim cached entry. A
// drained stream yields exactly the rows, in exactly the order, of the
// equivalent QueryContext call.
//
// A Rows is not safe for concurrent use. Close must be called (All
// does it automatically) to end the stream's trace span and report
// ExecOptions.OnFinish; an abandoned Rows holds no goroutine.
type Rows struct {
	ctx    context.Context
	cancel context.CancelFunc // set only under ExecOptions.Timeout
	span   *obs.Span
	// build runs the statement up to its operator tree; for fusion
	// statements it also sets lin and summary.
	build    func() (engine.Operator, error)
	onFinish func(*core.Summary, error)

	op      engine.Operator
	lin     [][]lineage.Set // aligned with the fused rows; nil when absent
	summary *core.Summary
	schema  *schema.Schema
	n       int // rows delivered
	row     relation.Row
	rowLin  []lineage.Set
	err     error
	done    bool
}

// StreamContext parses the statement and returns a cursor over its
// result rows; execution starts at the first Columns, Schema or Next,
// on the caller's goroutine. Parse errors are reported synchronously;
// execution errors surface through Columns, Next and Err. opt applies
// as in QueryWith — NoLineage stops per-row lineage from being
// attached, Timeout bounds the whole stream's lifetime, and Trace is
// accepted but useless here (a stream exposes no Pipeline; it only
// forces the fused-tier bypass).
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
	r := &Rows{onFinish: opt.OnFinish}
	if opt.Timeout > 0 {
		ctx, r.cancel = context.WithTimeout(ctx, opt.Timeout)
	}
	// The stream span covers execution plus the full drain: its
	// duration is the stream's wall time as the consumer experienced
	// it, with the execution sub-spans (cache.fused, pipeline, ...)
	// nested under it.
	r.ctx, r.span = obs.StartSpan(ctx, "stream")
	if stmt.IsFusion() {
		// Fused results stream from their finished table; executeFusion
		// already projected the options, so under NoLineage lin is nil
		// (trimResult).
		r.build = func() (engine.Operator, error) {
			res, err := e.executeFusion(r.ctx, stmt, q, opt)
			if err != nil {
				return nil, err
			}
			r.summary, r.lin = res.Summary, res.Lineage
			return engine.NewScan(res.Rel), nil
		}
	} else {
		// share=false: the streaming path trades subtree sharing for
		// genuine row-at-a-time streaming — materializing a CSE
		// intermediate here would move time-to-first-row back to
		// time-to-last-row.
		r.build = func() (engine.Operator, error) { return e.buildPlain(r.ctx, stmt, false) }
	}
	return r, nil
}

// open executes the statement up to its open operator tree, once; a
// failure ends the stream.
func (r *Rows) open() {
	if r.op != nil || r.done {
		return
	}
	if err := r.start(); err != nil {
		r.finish(err)
	}
}

// start and pull are the stream's containment boundary: a panic
// anywhere in execution becomes the stream's terminal
// *fault.InternalError, never a crash of the consuming goroutine.
func (r *Rows) start() (err error) {
	defer fault.Capture(faultinject.SitePlanStream, &err)
	if err := faultinject.Hit(faultinject.SitePlanStream); err != nil {
		return err
	}
	if err := r.ctx.Err(); err != nil {
		return err
	}
	op, err := r.build()
	if err != nil {
		return err
	}
	if err := op.Open(); err != nil {
		return err
	}
	r.op, r.schema = op, op.Schema()
	return nil
}

// pull fetches the next row; ok is false whenever err is set. The
// fault point fires before the pull that follows every
// streamFaultStride delivered rows and after a final partial run:
// 1 + ⌈n/stride⌉ hits per n-row stream, start's included.
func (r *Rows) pull() (row relation.Row, ok bool, err error) {
	defer fault.Capture(faultinject.SitePlanStream, &err)
	if r.n > 0 && r.n%streamFaultStride == 0 {
		if err := faultinject.Hit(faultinject.SitePlanStream); err != nil {
			return nil, false, err
		}
	}
	if err := r.ctx.Err(); err != nil {
		return nil, false, err
	}
	if row, ok = r.op.Next(); !ok && r.n%streamFaultStride != 0 {
		if err := faultinject.Hit(faultinject.SitePlanStream); err != nil {
			return nil, false, err
		}
	}
	return row, ok, nil
}

// finish ends the stream exactly once: at the end of the drain, on an
// error, or at Close (an early Close passes nil — it is not an error).
func (r *Rows) finish(err error) {
	r.done, r.err = true, err
	producedRows.Add(uint64(r.n))
	r.span.SetInt("rows", r.n)
	r.span.End()
	if r.cancel != nil {
		r.cancel()
	}
	if r.onFinish != nil {
		r.onFinish(r.summary, err)
	}
}

// producedRows counts rows yielded by stream cursors, across all
// streams over the process lifetime, exported as
// hummer_stream_produced_rows_total.
var producedRows atomic.Uint64

// StreamProducedRows reports the total rows yielded by stream cursors
// process-wide; a stream's rows are counted when it ends.
func StreamProducedRows() uint64 { return producedRows.Load() }

// StreamStallSnapshot returns an empty histogram: streams run on the
// consumer's goroutine, so no producer ever waits on a consumer. The
// benchmark harness still compiles against it; ROADMAP item 4b
// retires it.
func StreamStallSnapshot() obs.HistSnapshot { return obs.HistSnapshot{} }

// Columns returns the result's column names, executing the statement
// far enough to know them (for fusion statements: running the
// pipeline). It fails with the statement's error when execution dies
// before producing a schema — callers can therefore use it to
// distinguish "bad statement" from "streamable result" before
// consuming any rows.
func (r *Rows) Columns() ([]string, error) {
	s, err := r.Schema()
	if err != nil {
		return nil, err
	}
	return s.Names(), nil
}

// Schema is Columns with types: the full result schema.
func (r *Rows) Schema() (*schema.Schema, error) {
	r.open()
	switch {
	case r.schema != nil:
		return r.schema, nil
	case r.err != nil:
		return nil, r.err
	default:
		return nil, fmt.Errorf("plan: stream is closed")
	}
}

// Next advances to the next row, returning false at the end of the
// stream or on error (consult Err to tell the two apart).
func (r *Rows) Next() bool {
	r.open()
	if r.done {
		return false
	}
	row, ok, err := r.pull()
	if !ok {
		r.finish(err)
		return false
	}
	r.row, r.rowLin = row, nil
	if r.lin != nil {
		r.rowLin = r.lin[r.n]
	}
	r.n++
	return true
}

// Row returns the current row (valid until the next call to Next).
// Like QueryResult's rows, it may be shared with the cache or be a
// registered relation's own row: treat it as read-only, or Clone it.
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
	if r.done {
		return r.summary
	}
	return nil
}

// Close ends the stream. It is idempotent and never overwrites an
// error already reported by Next/Err.
func (r *Rows) Close() error {
	if !r.done {
		r.finish(nil)
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
