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

// TestDetectContextCompletesIdentical: an uncancelled DetectContext is
// byte-identical to Detect (the context plumbing must not perturb the
// canonical result).
func TestDetectContextCompletesIdentical(t *testing.T) {
	b := relation.NewBuilder("t", "Name", "Age")
	for i := 0; i < 120; i++ {
		b.AddText(fmt.Sprintf("alice example %d", i/2), fmt.Sprintf("%d", 20+i%40))
	}
	rel := b.Build()
	for _, cfg := range []Config{
		{Threshold: 0.8},
		{Threshold: 0.8, Parallelism: 3},
		{Threshold: 0.8, QGrams: 3},
	} {
		want, err := Detect(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DetectContext(context.Background(), rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Fatalf("cfg %+v: DetectContext differs from Detect", cfg)
		}
	}
}

// TestDetectScoreSpan: the detect.score span reports the candidate and
// compared counts of Stats and the number of scoring workers that
// actually ran, which drops to 1 when every candidate fits in one
// chunk.
func TestDetectScoreSpan(t *testing.T) {
	large := datagenDirty(42, 60)
	if n := large.Len(); n*(n-1)/2 <= pairChunkSize {
		t.Fatalf("%d rows fit in one chunk", n)
	}
	for _, tc := range []struct {
		label     string
		rel       *relation.Relation
		par, want int
	}{
		{"one chunk", dirtyPeople(), 8, 1},
		{"chunked", large, 3, 3},
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
	res, err := Detect(rel, Config{Threshold: 0.8, Blocking: 3, Attributes: []string{"Name"}})
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
	res, err = Detect(rel, Config{Threshold: 0.8, Window: 2, Attributes: []string{"Name"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedBlocks != 0 || res.Stats.SkippedBlockRows != 0 {
		t.Errorf("window run reported skipped blocks: %+v", res.Stats)
	}
}
