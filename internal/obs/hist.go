package obs

import (
	"sync/atomic"
	"time"
)

// DurationHist is a fixed-bucket, lock-free duration histogram in
// Prometheus le-convention: bucket i counts observations ≤ bounds[i],
// with one extra +Inf bucket. Observe is safe from any goroutine.
// Fixed buckets — not a sliding-window quantile sketch — keep Observe
// to two atomic adds and make exposition mergeable across scrapes and
// processes.
type DurationHist struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	nanos   atomic.Uint64
}

// NewDurationHist builds a histogram over ascending bucket bounds.
func NewDurationHist(bounds []float64) *DurationHist {
	return &DurationHist{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration. A negative duration (a clock step
// between two wall-clock reads) counts as 0.
func (h *DurationHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.nanos.Add(uint64(d))
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
// is always a valid histogram whose Count is its bucket sum.
func (h *DurationHist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.buckets)),
		Seconds: float64(h.nanos.Load()) / float64(time.Second),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds,
// interpolating linearly within the bucket that holds the target rank
// (floored at 1). Values in the +Inf bucket report the largest finite
// bound — a floor, honest about the histogram's resolution. Returns 0
// for an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := max(q*float64(s.Count), 1)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < rank || i == len(s.Bounds) {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		return lower + (upper-lower)*(rank-prev)/float64(n)
	}
	return s.Bounds[len(s.Bounds)-1]
}
