package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the program are internal/obs's
// business, not this file's). Spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per call
// site and no clock reads.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	s := &r.spans[id-1]
	s.End = now
	d := s.dur()
	r.mu.Unlock()
	return d
}

// timed runs fn under a span and returns how long it took. On a nil
// recorder it still times fn: the traced run's stage replays want the
// duration either way.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	if r == nil {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	id := r.start(name, parent, op)
	fn()
	return r.end(id)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part
// of its own interval that its direct children cover. Children may
// overlap each other (parallel calls) and may stick out of the parent
// (a child that outlives it); only the covered part of the parent's
// interval is subtracted, each instant once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// traceFile is the on-disk form of one workload's traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	// SelfNs maps span id to self time, precomputed so a reader needs
	// no interval arithmetic.
	SelfNs map[int]int64 `json:"self_ns"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	self := selfTimes(spans)
	tf := traceFile{Workload: workload, Seed: seed, Spans: spans, SelfNs: make(map[int]int64, len(self))}
	for id, d := range self {
		tf.SelfNs[id] = int64(d)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
