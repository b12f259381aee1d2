package parshard

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hummer/internal/testutil"
)

// TestRangesContextCancel: a cancelled context aborts before dispatch
// and reports the error after the shards drain.
func TestRangesContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RangesContext(ctx, 4, 100, func(shard, lo, hi int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("shards ran despite a pre-cancelled context")
	}
}

// TestRangesContextCancelMidRun: cancelling while four shards are
// running — each polling Canceled in a loop only cancellation can end —
// returns context.Canceled with every shard joined before the call
// returns and no goroutine left behind.
func TestRangesContextCancelMidRun(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started, joined atomic.Int32
	err := RangesContext(ctx, 4, 4, func(shard, lo, hi int) {
		defer joined.Add(1)
		if started.Add(1) == 4 {
			cancel() // the last shard to start cancels the run
		}
		for !Canceled(ctx) {
			time.Sleep(50 * time.Microsecond)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := joined.Load(); n != 4 {
		t.Fatalf("%d of 4 shards had joined when RangesContext returned", n)
	}
}
