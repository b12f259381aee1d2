package obs

import (
	"sync/atomic"
	"time"
)

// StallBounds are the bucket upper bounds (seconds) for the
// consumer-stall histogram: stream producers block from sub-ms (a
// momentarily busy consumer) to tens of seconds (a stalled client
// about to hit the write deadline).
var StallBounds = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}

// DurationHist is a fixed-bucket, lock-free duration histogram in
// Prometheus le-convention: bucket i counts observations ≤ bounds[i],
// with one extra +Inf bucket. Observe is safe from any goroutine.
type DurationHist struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	nanos   atomic.Uint64
}

// NewDurationHist builds a histogram over ascending bucket bounds.
func NewDurationHist(bounds []float64) *DurationHist {
	return &DurationHist{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *DurationHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.nanos.Add(uint64(d.Nanoseconds()))
}

// HistSnapshot is a point-in-time copy of a DurationHist, ready for
// exposition. Buckets are per-bucket (not cumulative) counts aligned
// with Bounds plus a final +Inf bucket.
type HistSnapshot struct {
	Bounds  []float64
	Buckets []uint64
	Count   uint64
	Seconds float64
}

// Snapshot copies the histogram's current state. The per-bucket loads
// are not atomic as a group, but each bucket is monotone, so the copy
// is always a valid histogram.
func (h *DurationHist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.buckets)),
		Seconds: float64(h.nanos.Load()) / float64(time.Second),
	}
	// Derive the total from the bucket loads, not h.count: a concurrent
	// Observe between the two would leave the bucket sum above Count,
	// a finite cumulative bucket above le="+Inf" in the exposition.
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}
