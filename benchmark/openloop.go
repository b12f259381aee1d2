package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open loop, so a test can inject a
// stall without sleeping.
type clock interface {
	// Now is the time since the loop started.
	Now() time.Duration
	// SleepUntil returns once Now() >= t.
	SleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }
func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// openSample is one request of an open loop. Latency is timed from
// Due, not from Sent: when the generator or the server stalls, the
// requests that should have gone out meanwhile are charged the wait,
// as the independent users they stand for would have been.
type openSample struct {
	Due, Sent, Done time.Duration
	OK              bool
}

func (s openSample) latency() time.Duration { return s.Done - s.Due }

// late is how far behind its schedule the generator sent the request.
func (s openSample) late() time.Duration { return s.Sent - s.Due }

// runOpen sends n requests at a constant rate: request i is due at
// i/rate. The workers stand for connections: each takes the next
// request, waits for its due time if that is still ahead, and calls
// do. When every worker is busy past a due time the request goes out
// late, and both the lateness and the latency from due time show it.
func runOpen(clk clock, rate float64, n, workers int, do func(i int) bool) []openSample {
	out := make([]openSample, n)
	gap := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &out[i]
				s.Due = time.Duration(i) * gap
				clk.SleepUntil(s.Due)
				s.Sent = clk.Now()
				s.OK = do(i)
				s.Done = clk.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// backlogGrows reports whether the generator fell steadily further
// behind: the median lateness of the last third of the requests
// exceeds that of the first third by more than slack. A rate at which
// this happens is above what the system sustains, whatever its
// percentiles say.
func backlogGrows(samples []openSample, slack time.Duration) bool {
	third := len(samples) / 3
	if third == 0 {
		return false
	}
	med := func(part []openSample) time.Duration {
		xs := make([]float64, len(part))
		for i, s := range part {
			xs[i] = float64(s.late())
		}
		return time.Duration(median(xs))
	}
	return med(samples[len(samples)-third:]) > med(samples[:third])+slack
}
