package dupdetect

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hummer/internal/obs"
	"hummer/internal/relation"
	"hummer/internal/testutil"
)

// TestDetectContextCancelMidScoring cancels a detection while its
// O(n²) pair-scoring loop is running: the call must return the
// context error within a test-enforced deadline with every worker
// goroutine joined.
func TestDetectContextCancelMidScoring(t *testing.T) {
	// 2000 rows exhaustive = ~2M candidate pairs: far more work than
	// the 5ms fuse below, so the cancellation always lands mid-flight.
	b := relation.NewBuilder("big", "Name", "City")
	for i := 0; i < 2000; i++ {
		b.AddText(fmt.Sprintf("citizen number %d of the republic", i), fmt.Sprintf("metropolis %d", i%13))
	}
	rel := b.Build()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	res, err := DetectContext(ctx, rel, Config{Threshold: 0.8, Parallelism: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", res, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled detection took %v to return", elapsed)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines did not join: %d running, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDetectContextPreCancelled: a cancelled context aborts detection
// before any scoring and returns no partial result.
func TestDetectContextPreCancelled(t *testing.T) {
	b := relation.NewBuilder("t", "Name", "City")
	for i := 0; i < 300; i++ {
		b.AddText(fmt.Sprintf("person %d", i), fmt.Sprintf("city %d", i%7))
	}
	rel := b.Build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DetectContext(ctx, rel, Config{Threshold: 0.8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Fatal("cancelled detection returned a partial result")
	}
	// The same relation still detects fine afterwards.
	if _, err := DetectContext(context.Background(), rel, Config{Threshold: 0.8}); err != nil {
		t.Fatalf("detection after cancellation: %v", err)
	}
}

// TestDetectContextCancelAtEveryPoll cancels a detection at each of
// its ctx polls in turn — measure, candidate build, scoring and clustering
// alike, for every candidate strategy — and requires every one to
// return context.Canceled with no partial result and no goroutine left
// behind; one poll later than the last, the run completes identical to
// an uncancelled one.
func TestDetectContextCancelAtEveryPoll(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rel := datagenDirty(42, 40)
	for _, tc := range []struct {
		cfg   Config
		polls int
	}{
		{Config{Parallelism: 1}, 114},
		{Config{Parallelism: 3}, 114},
		{Config{Window: 8, Parallelism: 3}, 127},
		{Config{Blocking: 3, Parallelism: 3}, 131},
	} {
		probe := testutil.CancelAtPoll(t, 0)
		want, err := DetectContext(probe, rel, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		polls := probe.Polls()
		if polls != tc.polls {
			t.Fatalf("%+v: %d ctx polls, want %d", tc.cfg, polls, tc.polls)
		}
		for n := 1; n <= polls; n++ {
			res, err := DetectContext(testutil.CancelAtPoll(t, n), rel, tc.cfg)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%+v cancelled at poll %d/%d: got (%v, %v), want (nil, context.Canceled)", tc.cfg, n, polls, res, err)
			}
		}
		got, err := DetectContext(testutil.CancelAtPoll(t, polls+1), rel, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("%+v past the last poll", tc.cfg), want, got)
	}
}

// TestDetectScoreSpan: the detect.score span reports the candidate and
// compared counts of Stats, the number of distinct detection tuples and
// the number of scoring workers that actually ran, which drops to 1
// when every candidate fits in one chunk and to ⌈t/2⌉ fold shards of
// the t tuples when Parallelism asks for more.
func TestDetectScoreSpan(t *testing.T) {
	large := datagenDirty(42, 60)
	if n := large.Len(); n*(n-1)/2 <= pairChunkSize {
		t.Fatalf("%d rows fit in one chunk", n)
	}
	odd := headRows(t, large, 47)
	b := relation.NewBuilder("repeated", "Name", "City")
	for i := 0; i < 60; i++ {
		b.AddText(fmt.Sprintf("person %d", i%9), "Berlin")
	}
	repeated := b.Build()
	for _, tc := range []struct {
		label             string
		rel               *relation.Relation
		par, want, tuples int
	}{
		{"one chunk", dirtyPeople(), 8, 1, 7},
		{"chunked", large, 3, 3, 161}, // 180 rows, some observed without a typo or NULL
		{"capped at half", odd, 64, 24, 47},
		{"capped at half the tuples", repeated, 8, 5, 9},
	} {
		tr := obs.NewTrace("t", "test")
		res, err := DetectContext(obs.ContextWithTrace(context.Background(), tr), tc.rel, Config{Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var score *obs.SpanView
		for _, c := range tr.View().Root.Children {
			if c.Name == "detect.score" {
				score = c
			}
		}
		if score == nil {
			t.Fatalf("%s: no detect.score span", tc.label)
		}
		want := map[string]any{
			"tuples":     int64(tc.tuples),
			"workers":    int64(tc.want),
			"candidates": int64(res.Stats.CandidatePairs),
			"compared":   int64(res.Stats.Compared),
		}
		if !reflect.DeepEqual(score.Attrs, want) {
			t.Errorf("%s: detect.score attrs %v, want %v", tc.label, score.Attrs, want)
		}
	}
}

// TestSkippedBlockStats: oversized blocks are no longer dropped
// silently — the Result's Stats surface how many blocks (and rows)
// the blocking strategies refused to pair.
func TestSkippedBlockStats(t *testing.T) {
	// maxBlockRows+1 rows sharing the prefix "aaa" form one oversized
	// block under prefix blocking; every row also carries a unique
	// tail so the relation is not degenerate.
	b := relation.NewBuilder("t", "Name", "Code")
	n := maxBlockRows + 1
	for i := 0; i < n; i++ {
		b.AddText(fmt.Sprintf("aaa%06d", i), fmt.Sprintf("c%d", i))
	}
	rel := b.Build()
	res, err := DetectContext(t.Context(), rel, Config{Threshold: 0.8, Blocking: 3, Attributes: []string{"Name"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedBlocks != 1 {
		t.Errorf("SkippedBlocks = %d, want 1", res.Stats.SkippedBlocks)
	}
	if res.Stats.SkippedBlockRows != n {
		t.Errorf("SkippedBlockRows = %d, want %d", res.Stats.SkippedBlockRows, n)
	}
	if res.Stats.CandidatePairs != 0 {
		t.Errorf("CandidatePairs = %d, want 0 (the only block was skipped)", res.Stats.CandidatePairs)
	}

	// A window-based run never skips blocks: the counters stay zero.
	res, err = DetectContext(t.Context(), rel, Config{Threshold: 0.8, Window: 2, Attributes: []string{"Name"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedBlocks != 0 || res.Stats.SkippedBlockRows != 0 {
		t.Errorf("window run reported skipped blocks: %+v", res.Stats)
	}
}
