package dumas

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hummer/internal/relation"
)

// randomPair builds two random relations sharing noisy copies of some
// entities, for property-testing the matcher.
func randomPair(rng *rand.Rand) (*relation.Relation, *relation.Relation) {
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(n int) string {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return string(out)
	}
	entities := 4 + rng.Intn(12)
	type ent struct{ name, city, code string }
	ents := make([]ent, entities)
	for e := range ents {
		ents[e] = ent{
			name: word(4+rng.Intn(6)) + " " + word(4+rng.Intn(6)),
			city: word(5 + rng.Intn(4)),
			code: fmt.Sprintf("%s-%03d", word(2), rng.Intn(1000)),
		}
	}
	typo := func(s string) string {
		if rng.Float64() < 0.3 && len(s) > 1 {
			b := []byte(s)
			b[rng.Intn(len(b))] = letters[rng.Intn(len(letters))]
			return string(b)
		}
		return s
	}
	lb := relation.NewBuilder("l", "Name", "City", "Code")
	rb := relation.NewBuilder("r", "Person", "Town", "Id")
	for e, en := range ents {
		if e%3 != 0 {
			lb.AddText(en.name, en.city, en.code)
		}
		if e%4 != 1 {
			rb.AddText(typo(en.name), typo(en.city), en.code)
		}
	}
	return lb.Build(), rb.Build()
}

// requireIdentical asserts two match results are deep-equal —
// correspondences, duplicates, matrix, stats, everything, down to the
// float bits.
func requireIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

// TestPropertyParallelDeterministic: for random relation pairs and
// every candidate strategy, MatchContext with Parallelism ∈ {2, 3, 7,
// GOMAXPROCS} must return a Result byte-identical to the sequential
// path (Parallelism = 1) — parallelism is a wall-clock knob, never a
// semantics knob.
func TestPropertyParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	counts := []int{2, 3, 7, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 10; trial++ {
		left, right := randomPair(rng)
		configs := []Config{
			{},
			{Window: 4},
			{QGrams: 3},
			{MaxDuplicates: 3, MinTupleSim: 0.05},
		}
		for ci, base := range configs {
			base.Parallelism = 1
			seq, err := MatchContext(t.Context(), left, right, base)
			if err != nil {
				t.Fatalf("trial %d cfg %d: %v", trial, ci, err)
			}
			for _, p := range counts {
				cfg := base
				cfg.Parallelism = p
				par, err := MatchContext(t.Context(), left, right, cfg)
				if err != nil {
					t.Fatalf("trial %d cfg %d p=%d: %v", trial, ci, p, err)
				}
				requireIdentical(t, fmt.Sprintf("trial %d cfg %d p=%d", trial, ci, p), seq, par)
			}
		}
	}
}

// TestParallelDeterministicLargeInput forces an input big enough to
// engage every sharded phase — precomputation and the default
// strategy's row-sharded scoring (≥ precomputeMinRows rows), the
// window strategy's multi-worker scoring (> pairChunk candidates) —
// and checks byte-identity across worker counts. A shared organization
// column gives every cross pair a common token, so the default
// strategy scores all nl·nr candidates.
func TestParallelDeterministicLargeInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lb := relation.NewBuilder("l", "Name", "City", "Org")
	rb := relation.NewBuilder("r", "Person", "Town", "Employer")
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(n int) string {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return string(out)
	}
	for i := 0; i < 70; i++ {
		name := word(5) + " " + word(6)
		lb.AddText(name, word(6), "acme corporation")
		rb.AddText(name, word(6), "acme corporation")
	}
	left, right := lb.Build(), rb.Build()
	if left.Len()+right.Len() < precomputeMinRows {
		t.Fatalf("workload too small to engage sharded precompute: %d+%d rows",
			left.Len(), right.Len())
	}
	for _, base := range []Config{{}, {Window: 40}} {
		base.Parallelism = 1
		seq, err := MatchContext(t.Context(), left, right, base)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Stats.CandidatePairs <= pairChunk {
			t.Fatalf("%+v: workload too small to span chunks: %d candidates", base, seq.Stats.CandidatePairs)
		}
		for _, p := range []int{2, 4, 8} {
			cfg := base
			cfg.Parallelism = p
			par, err := MatchContext(t.Context(), left, right, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("%+v", cfg), seq, par)
		}
	}
}

// TestDefaultParallelismMatchesSequential: Parallelism = 0 (GOMAXPROCS
// workers, the pipeline default) must equal the sequential result too.
func TestDefaultParallelismMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		left, right := randomPair(rng)
		seq, err := MatchContext(t.Context(), left, right, Config{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		auto, err := MatchContext(t.Context(), left, right, Config{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("trial %d", trial), seq, auto)
	}
}

// TestWindowAndQGramsExclusive: setting both strategies is a
// configuration error, not a silent precedence choice.
func TestWindowAndQGramsExclusive(t *testing.T) {
	left, right := randomPair(rand.New(rand.NewSource(1)))
	if _, err := MatchContext(t.Context(), left, right, Config{Window: 3, QGrams: 3}); err == nil {
		t.Fatal("Window+QGrams accepted; want error")
	}
}

// dupSet projects the discovered duplicates to comparable (L,R) keys.
func dupSet(dups []TuplePair) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, d := range dups {
		out[[2]int{d.LeftRow, d.RightRow}] = true
	}
	return out
}

// TestCandidateStrategyRecall: on seeded data with shared entities,
// sorted neighborhood (with a generous window) and q-gram blocking
// must discover exactly the duplicates the full-recall token index
// finds — the pruning strategies only drop hopeless pairs here.
func TestCandidateStrategyRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	left, right := randomPair(rng)
	full, err := MatchContext(t.Context(), left, right, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Duplicates) == 0 {
		t.Fatal("seeded data produced no duplicates at all")
	}
	want := dupSet(full.Duplicates)
	for _, tc := range []struct {
		label string
		cfg   Config
	}{
		{"window", Config{Window: left.Len() + right.Len()}},
		{"qgrams", Config{QGrams: 3}},
	} {
		res, err := MatchContext(t.Context(), left, right, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		got := dupSet(res.Duplicates)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: top duplicates differ from exhaustive\nwant %v\ngot  %v",
				tc.label, want, got)
		}
	}
}

// TestQGramsPrunesCandidates: with discriminating sort-key prefixes,
// q-gram blocking must consider strictly fewer pairs than the token
// index on data whose tuples share common trailing vocabulary (the
// token index pairs everything through the shared department tokens;
// blocking only pairs tuples whose leading value shares a gram).
func TestQGramsPrunesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(n int) string {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return string(out)
	}
	lb := relation.NewBuilder("l", "Name", "Dept")
	rb := relation.NewBuilder("r", "Person", "Unit")
	for i := 0; i < 40; i++ {
		name := word(10)
		lb.AddText(name, "shared department label")
		rb.AddText(name, "shared department label")
	}
	left, right := lb.Build(), rb.Build()
	full, err := MatchContext(t.Context(), left, right, Config{})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := MatchContext(t.Context(), left, right, Config{QGrams: 4})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Stats.CandidatePairs >= full.Stats.CandidatePairs {
		t.Errorf("q-gram blocking considered %d pairs, token index %d",
			blocked.Stats.CandidatePairs, full.Stats.CandidatePairs)
	}
	if blocked.Stats.CandidatePairs == 0 {
		t.Error("q-gram blocking produced no candidates at all")
	}
}
