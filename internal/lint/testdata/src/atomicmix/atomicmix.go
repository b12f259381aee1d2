// Package atomicmix is a lint fixture for the function-style atomic ban.
package atomicmix

import "sync/atomic"

type Counter struct {
	n    int64
	safe atomic.Int64
}

func (c *Counter) Bad() {
	atomic.AddInt64(&c.n, 1) // want `\[hummer/atomicmix\] atomic.AddInt64: use a typed atomic`
}

func (c *Counter) Good() int64 {
	return c.safe.Add(1)
}
