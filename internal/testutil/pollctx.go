package testutil

import (
	"context"
	"sync/atomic"
	"testing"
)

// PollCtx is a context that cancels itself at its n-th poll, a poll
// being a call to Done or Err — the two ways code checks for
// cancellation. Running a computation once with n = 0 (never cancel)
// and reading Polls gives the number of its poll points; sweeping n
// over 1..Polls() then cancels it at each of them in turn, so a test
// can assert that every checkpoint aborts cleanly. Safe for concurrent
// use by the workers of the computation under test.
type PollCtx struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	polls  atomic.Int64
}

// CancelAtPoll returns a context that cancels at its n-th poll, or
// never when n <= 0. It is derived from a background context: tests
// are the root of their own cancellation chain. Its cancel function is
// released at the end of the test.
func CancelAtPoll(t testing.TB, n int) *PollCtx {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &PollCtx{Context: ctx, cancel: cancel, at: int64(n)}
}

// Polls returns how many times Done or Err has been called so far.
func (c *PollCtx) Polls() int { return int(c.polls.Load()) }

// Done counts a poll, cancelling when it is the n-th, and returns the
// (then closed) done channel.
func (c *PollCtx) Done() <-chan struct{} {
	c.poll()
	return c.Context.Done()
}

// Err counts a poll, cancelling when it is the n-th, and returns the
// context's error.
func (c *PollCtx) Err() error {
	c.poll()
	return c.Context.Err()
}

func (c *PollCtx) poll() {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
}
