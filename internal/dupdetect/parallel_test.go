package dupdetect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hummer/internal/relation"
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
			{Threshold: 0.8, QGrams: 3},
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
// engage the row-sharded measure precomputation (n >= 128) and checks
// the full Result — whose similarities depend on the sharded corpus,
// distinctness and numeric-range aggregation — stays byte-identical
// across worker counts.
func TestShardedMeasureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rel := randomDirtyTable(rng)
	for rel.Len() < 2*measureShardMinRows {
		more := randomDirtyTable(rng)
		for i := 0; i < more.Len(); i++ {
			rel.MustAppend(more.Row(i))
		}
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

// TestWindowAndBlockingExclusive: setting several strategies is a
// configuration error, not a silent precedence choice.
func TestWindowAndBlockingExclusive(t *testing.T) {
	for _, cfg := range []Config{
		{Window: 3, Blocking: 3},
		{Window: 3, QGrams: 3},
		{Blocking: 3, QGrams: 3},
		{Window: 3, Blocking: 3, QGrams: 3},
	} {
		if _, err := DetectContext(t.Context(), dirtyPeople(), cfg); err == nil {
			t.Fatalf("%+v accepted; want mutual-exclusion error", cfg)
		}
	}
}

// dirtyPrefixPeople holds a duplicate pair whose every attribute has a
// typo in the very first character — the worst case for prefix
// blocking, which keys on leading runes.
func dirtyPrefixPeople() *relation.Relation {
	return relation.NewBuilder("merged", "sourceID", "Name", "City", "Email").
		AddText("s1", "Katherine Johnson", "Pasadena", "kath@example.com").
		AddText("s2", "Xatherine Johnson", "Qasadena", "xath@example.com").
		AddText("s1", "Dorothy Vaughan", "Hampton", "dot@example.org").
		AddText("s2", "Mary Jackson", "Newport", "mary@example.net").
		AddText("s1", "Annie Easley", "Cleveland", "annie@example.com").
		Build()
}

// TestQGramsRecallSurvivesDirtyPrefixes is the strategy-recall test
// for the ported dumas q-gram key scheme: when every attribute of a
// duplicate pair carries a first-character typo, plain prefix
// blocking generates no candidate for the pair at all, while q-gram
// blocking still discovers it through the agreeing interior grams —
// and clusters it exactly like the exhaustive reference.
func TestQGramsRecallSurvivesDirtyPrefixes(t *testing.T) {
	rel := dirtyPrefixPeople()

	ex, err := DetectContext(t.Context(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ObjectIDs[0] != ex.ObjectIDs[1] {
		t.Fatalf("fixture invalid: exhaustive detection must cluster the typo pair: %v", ex.ObjectIDs)
	}

	pb, err := DetectContext(t.Context(), rel, Config{Blocking: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pb.ObjectIDs[0] == pb.ObjectIDs[1] {
		t.Fatal("prefix blocking unexpectedly found the dirty-prefix pair; fixture no longer distinguishes the strategies")
	}

	qg, err := DetectContext(t.Context(), rel, Config{QGrams: 3})
	if err != nil {
		t.Fatal(err)
	}
	if qg.ObjectIDs[0] != qg.ObjectIDs[1] {
		t.Errorf("q-gram blocking missed the dirty-prefix pair: %v", qg.ObjectIDs)
	}
	if !reflect.DeepEqual(qg.ObjectIDs, ex.ObjectIDs) {
		t.Errorf("q-gram clustering differs from exhaustive:\nqgrams:     %v\nexhaustive: %v",
			qg.ObjectIDs, ex.ObjectIDs)
	}
}

// TestQGramsReducesCandidates: q-gram blocking must consider fewer
// pairs than the exhaustive sweep on a diverse table while still
// producing candidates.
func TestQGramsReducesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := randomDirtyTable(rng)
	ex, err := DetectContext(t.Context(), rel, Config{})
	if err != nil {
		t.Fatal(err)
	}
	qg, err := DetectContext(t.Context(), rel, Config{QGrams: 4})
	if err != nil {
		t.Fatal(err)
	}
	if qg.Stats.CandidatePairs >= ex.Stats.CandidatePairs {
		t.Errorf("q-grams considered %d pairs, exhaustive %d",
			qg.Stats.CandidatePairs, ex.Stats.CandidatePairs)
	}
	if qg.Stats.CandidatePairs == 0 {
		t.Error("q-grams produced no candidates at all")
	}
	n := rel.Len()
	if qg.Stats.CandidatePairs > n*(n-1)/2 {
		t.Errorf("%d candidates exceed the %d distinct pairs (cross-gram dedup broken)",
			qg.Stats.CandidatePairs, n*(n-1)/2)
	}
}
