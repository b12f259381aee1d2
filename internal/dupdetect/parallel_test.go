package dupdetect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hummer/internal/eval"
)

// requireIdentical asserts two detection results are deep-equal —
// clusters, duplicate and borderline pair order, stats, everything.
func requireIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

// TestPropertyParallelDeterministic: for random dirty tables and every
// candidate strategy, DetectContext with Parallelism ∈ {2, 8} must return a
// Result byte-identical to the sequential path (Parallelism = 1) —
// parallelism is a wall-clock knob, never a semantics knob.
func TestPropertyParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 15; trial++ {
		rel := randomDirtyTable(rng)
		configs := []Config{
			{Threshold: 0.8},
			{Threshold: 0.7, Window: 3},
			{Threshold: 0.8, Blocking: 2},
			{Threshold: 0.8, DisableFilter: true},
		}
		for ci, base := range configs {
			base.Parallelism = 1
			seq, err := DetectContext(t.Context(), rel, base)
			if err != nil {
				t.Fatalf("trial %d cfg %d: %v", trial, ci, err)
			}
			for _, p := range []int{2, 8} {
				cfg := base
				cfg.Parallelism = p
				par, err := DetectContext(t.Context(), rel, cfg)
				if err != nil {
					t.Fatalf("trial %d cfg %d p=%d: %v", trial, ci, p, err)
				}
				requireIdentical(t, fmt.Sprintf("trial %d cfg %d p=%d", trial, ci, p), seq, par)
			}
		}
	}
}

// TestParallelDeterministicLargerThanChunk forces the multi-worker
// path (more candidate pairs than pairChunkSize) so the cross-shard
// merge order is actually exercised.
func TestParallelDeterministicLargerThanChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	rel := randomDirtyTable(rng)
	for rel.Len()*(rel.Len()-1)/2 <= 3*pairChunkSize {
		bigger := randomDirtyTable(rng)
		for i := 0; i < bigger.Len(); i++ {
			rel.MustAppend(bigger.Row(i))
		}
	}
	seq, err := DetectContext(t.Context(), rel, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.CandidatePairs <= 3*pairChunkSize {
		t.Fatalf("workload too small to span chunks: %d pairs", seq.Stats.CandidatePairs)
	}
	for _, p := range []int{2, 4, 8} {
		par, err := DetectContext(t.Context(), rel, Config{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("p=%d", p), seq, par)
	}
}

// TestShardedMeasureDeterministic forces a table large enough to
// engage the tuple-sharded measure precomputation (at least 128
// distinct tuples) and checks the full Result — whose similarities
// depend on the corpus, distinctness and numeric ranges — stays
// byte-identical across worker counts.
func TestShardedMeasureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rel := randomDirtyTable(rng)
	for rel.Len() < 2*measureShardMinRows {
		more := randomDirtyTable(rng)
		for i := 0; i < more.Len(); i++ {
			rel.MustAppend(more.Row(i))
		}
	}
	var cols []int
	for _, a := range SelectAttributes(rel) {
		cols = append(cols, rel.Schema().MustLookup(a))
	}
	m, err := newMeasure(t.Context(), rel, cols, Default())
	if err != nil {
		t.Fatal(err)
	}
	if m.tuples.len() < measureShardMinRows {
		t.Fatalf("%d rows hold %d distinct tuples: the measure does not shard", rel.Len(), m.tuples.len())
	}
	seq, err := DetectContext(t.Context(), rel, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 7} {
		par, err := DetectContext(t.Context(), rel, Config{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("p=%d", p), seq, par)
	}
}

// TestDefaultParallelismMatchesSequential: Parallelism = 0 (GOMAXPROCS
// workers, the pipeline default) must equal the sequential result too.
func TestDefaultParallelismMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		rel := randomDirtyTable(rng)
		seq, err := DetectContext(t.Context(), rel, Config{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		auto, err := DetectContext(t.Context(), rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("trial %d", trial), seq, auto)
	}
}

// TestBlockingFindsPrefixSharingDuplicates: typo pairs that agree on
// the prefix of at least one selected attribute must still be found
// under blocking.
func TestBlockingFindsPrefixSharingDuplicates(t *testing.T) {
	res, err := DetectContext(t.Context(), dirtyPeople(), Config{Blocking: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := res.ObjectIDs
	if ids[0] != ids[1] {
		t.Errorf("rows 0,1 (typo pair, shared prefixes) not clustered: %v", ids)
	}
	if ids[2] != ids[3] || ids[3] != ids[4] {
		t.Errorf("rows 2,3,4 (Maria) not clustered: %v", ids)
	}
	if ids[5] == ids[0] || ids[6] == ids[5] {
		t.Errorf("singletons wrongly merged: %v", ids)
	}
}

// TestBlockingReducesCandidates: blocking must consider strictly fewer
// pairs than exhaustive on a table with diverse prefixes.
func TestBlockingReducesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := randomDirtyTable(rng)
	ex, err := DetectContext(t.Context(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := DetectContext(t.Context(), rel, Config{Blocking: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bl.Stats.CandidatePairs >= ex.Stats.CandidatePairs {
		t.Errorf("blocking considered %d pairs, exhaustive %d",
			bl.Stats.CandidatePairs, ex.Stats.CandidatePairs)
	}
	if bl.Stats.CandidatePairs == 0 {
		t.Error("blocking produced no candidates at all")
	}
}

// TestBlockingNoDuplicateCandidates: a pair sharing prefixes on several
// attributes must still be counted once (cross-pass dedup).
func TestBlockingNoDuplicateCandidates(t *testing.T) {
	res, err := DetectContext(t.Context(), dirtyPeople(), Config{Blocking: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 7
	if res.Stats.CandidatePairs > n*(n-1)/2 {
		t.Errorf("%d candidates exceed the %d distinct pairs", res.Stats.CandidatePairs, n*(n-1)/2)
	}
}

// TestWindowAndBlockingExclusive: setting both strategies is a
// configuration error, not a silent precedence choice.
func TestWindowAndBlockingExclusive(t *testing.T) {
	if _, err := DetectContext(t.Context(), dirtyPeople(), Config{Window: 3, Blocking: 3}); err == nil {
		t.Fatal("Window+Blocking accepted; want mutual-exclusion error")
	}
}

// TestBlockingKeepsExhaustiveRecall: on the detection workload's shape
// of input (300 persons observed three times, 900 rows) at three
// seeds, prefix Blocking skips no block, keeps pairwise recall within
// 0.005 of the exhaustive strategy's and reaches at least its F1 —
// blocking does not drop recall at this size.
func TestBlockingKeepsExhaustiveRecall(t *testing.T) {
	for _, seed := range []int64{42, 43, 44} {
		obs := datagenDirtyObservation(seed, 300)
		ex, err := DetectContext(t.Context(), obs.Rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := DetectContext(t.Context(), obs.Rel, Config{Blocking: 3})
		if err != nil {
			t.Fatal(err)
		}
		if bl.Stats.SkippedBlocks != 0 {
			t.Errorf("seed %d: Blocking skipped %d blocks", seed, bl.Stats.SkippedBlocks)
		}
		exM := eval.DuplicatePairs(ex.ObjectIDs, obs.EntityIDs)
		blM := eval.DuplicatePairs(bl.ObjectIDs, obs.EntityIDs)
		t.Logf("seed %d: exhaustive recall %.4f F1 %.4f, Blocking recall %.4f F1 %.4f",
			seed, exM.Recall, exM.F1, blM.Recall, blM.F1)
		if blM.Recall < exM.Recall-0.005 {
			t.Errorf("seed %d: Blocking recall %.4f, exhaustive %.4f", seed, blM.Recall, exM.Recall)
		}
		if blM.F1 < exM.F1 {
			t.Errorf("seed %d: Blocking F1 %.4f below exhaustive %.4f", seed, blM.F1, exM.F1)
		}
	}
}

// TestBlockingPrunesDetectionWorkload: on the same 900-row detection
// input, prefix Blocking considers strictly fewer pairs than the
// exhaustive strategy, still produces candidates, and counts each pair
// at most once across its per-attribute passes.
func TestBlockingPrunesDetectionWorkload(t *testing.T) {
	for _, seed := range []int64{42, 43, 44} {
		obs := datagenDirtyObservation(seed, 300)
		ex, err := DetectContext(t.Context(), obs.Rel, Config{})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := DetectContext(t.Context(), obs.Rel, Config{Blocking: 3})
		if err != nil {
			t.Fatal(err)
		}
		if bl.Stats.CandidatePairs >= ex.Stats.CandidatePairs {
			t.Errorf("seed %d: Blocking considered %d pairs, exhaustive %d",
				seed, bl.Stats.CandidatePairs, ex.Stats.CandidatePairs)
		}
		if bl.Stats.CandidatePairs == 0 {
			t.Errorf("seed %d: Blocking produced no candidates at all", seed)
		}
		if n := obs.Rel.Len(); bl.Stats.CandidatePairs > n*(n-1)/2 {
			t.Errorf("seed %d: %d candidates exceed the %d distinct pairs",
				seed, bl.Stats.CandidatePairs, n*(n-1)/2)
		}
	}
}
