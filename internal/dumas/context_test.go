package dumas

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hummer/internal/obs"
	"hummer/internal/relation"
	"hummer/internal/testutil"
)

// TestMatchContextPreCancelled: a cancelled context aborts matching
// before any scoring and returns no partial result.
func TestMatchContextPreCancelled(t *testing.T) {
	left := relation.NewBuilder("l", "Name", "City")
	right := relation.NewBuilder("r", "FullName", "Town")
	for i := 0; i < 200; i++ {
		left.AddText(fmt.Sprintf("person %d", i), fmt.Sprintf("city %d", i%5))
		right.AddText(fmt.Sprintf("person %d", i), fmt.Sprintf("city %d", i%5))
	}
	l, r := left.Build(), right.Build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MatchContext(ctx, l, r, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Fatal("cancelled match returned a partial result")
	}
	if _, err := MatchContext(context.Background(), l, r, Config{}); err != nil {
		t.Fatalf("match after cancellation: %v", err)
	}
}

// TestMatchContextCancelAtEveryPoll cancels a match at each of its ctx
// polls in turn — corpus, scoring and matrix phases alike — and
// requires every one to return context.Canceled with no partial result
// and no goroutine left behind; one poll later than the last, the run
// completes byte-identical to an uncancelled one.
func TestMatchContextCancelAtEveryPoll(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	left, right := personsPair(42, 120)
	for _, cfg := range []Config{{Parallelism: 1}, {Parallelism: 3}, {Window: 8, Parallelism: 3}} {
		probe := testutil.CancelAtPoll(t, 0)
		want, err := MatchContext(probe, left, right, cfg)
		if err != nil {
			t.Fatal(err)
		}
		polls := probe.Polls()
		if polls < 3 {
			t.Fatalf("%+v: only %d ctx polls", cfg, polls)
		}
		for n := 1; n <= polls; n++ {
			res, err := MatchContext(testutil.CancelAtPoll(t, n), left, right, cfg)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%+v cancelled at poll %d/%d: got (%v, %v), want (nil, context.Canceled)", cfg, n, polls, res, err)
			}
		}
		got, err := MatchContext(testutil.CancelAtPoll(t, polls+1), left, right, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("%+v past the last poll", cfg), want, got)
	}
}

// TestMatchScoreSpan: the match.score span reports the candidate and
// scored counts of Stats and the number of scoring shards that actually
// ran, which drops below the configured Parallelism on small inputs.
func TestMatchScoreSpan(t *testing.T) {
	left, right := personsPair(42, 150)
	one := relation.NewBuilder("one", "Name").AddText("anna schmidt").Build()
	small := relation.NewBuilder("small", "Name").AddText("anna").AddText("bob").Build()
	if one.Len()+right.Len() < precomputeMinRows {
		t.Fatalf("%d+%d rows do not engage sharding", one.Len(), right.Len())
	}
	for _, tc := range []struct {
		label       string
		left, right *relation.Relation
		par, want   int
	}{
		{"sharded", left, right, 3, 3},
		{"below precomputeMinRows", small, small, 8, 1},
		{"one left row", one, right, 4, 1},
	} {
		tr := obs.NewTrace("t", "test")
		res, err := MatchContext(obs.ContextWithTrace(context.Background(), tr), tc.left, tc.right, Config{Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var score *obs.SpanView
		for _, c := range tr.View().Root.Children {
			if c.Name == "match.score" {
				score = c
			}
		}
		if score == nil {
			t.Fatalf("%s: no match.score span", tc.label)
		}
		want := map[string]any{
			"workers":    int64(tc.want),
			"candidates": int64(res.Stats.CandidatePairs),
			"scored":     int64(res.Stats.Scored),
		}
		if !reflect.DeepEqual(score.Attrs, want) {
			t.Errorf("%s: match.score attrs %v, want %v", tc.label, score.Attrs, want)
		}
	}
}
