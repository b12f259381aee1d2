package engine

import (
	"context"
	"errors"
	"testing"

	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/value"
)

// cancellingOp yields rows forever, cancelling the test's context
// after a fixed number of Next calls — the deterministic stand-in for
// "the client hung up while the scan was running".
type cancellingOp struct {
	sch    *schema.Schema
	n      int
	after  int
	cancel context.CancelFunc
}

func (o *cancellingOp) Schema() *schema.Schema { return o.sch }
func (o *cancellingOp) Open() error            { return nil }
func (o *cancellingOp) Next() (relation.Row, bool) {
	o.n++
	if o.n == o.after {
		o.cancel()
	}
	return relation.Row{value.NewInt(int64(o.n))}, true
}

// TestMaterializeContextCancelsMidScan: a context cancelled while the
// operator tree is being drained stops the scan at the next row
// stride with ctx's error — plain-SQL statements no longer run to
// completion after their caller is gone.
func TestMaterializeContextCancelsMidScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op := &cancellingOp{
		sch:    schema.New(schema.Column{Name: "n", Type: value.KindInt}),
		after:  materializeStride + 1,
		cancel: cancel,
	}
	rel, err := MaterializeContext(ctx, "out", op)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MaterializeContext returned (%v, %v), want context.Canceled", rel, err)
	}
	if op.n >= 10*materializeStride {
		t.Fatalf("scan ran %d rows past the cancellation", op.n)
	}
}

// TestMaterializeContextPreCancelled: a dead context never opens the
// operator.
func TestMaterializeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MaterializeContext(ctx, "out", NewScan(people())); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestMaterializeContextComplete: an unconstrained context changes
// nothing — the drain is identical to MaterializeContext.
func TestMaterializeContextComplete(t *testing.T) {
	rel, err := MaterializeContext(context.Background(), "out", NewScan(people()))
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, NewScan(people()))
	if rel.String() != want.String() {
		t.Fatalf("ctx drain differs:\n%s\nvs\n%s", rel, want)
	}
}
