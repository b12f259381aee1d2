package dumas

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hummer/internal/relation"
	"hummer/internal/strsim"
)

// oracleMatrix is the string-keyed reference for the averaged field
// matrix: a strsim.Corpus with one document per non-NULL cell of both
// relations, each duplicate cell's strsim.TermVec built from its
// Tokenize'd text, numbers compared by strsim.NumericSim and text by
// strsim.SoftTFIDFTermVecs, each cell summed in pair order.
func oracleMatrix(left, right *relation.Relation, dups []TuplePair) [][]float64 {
	if len(dups) == 0 {
		return nil
	}
	corpus := strsim.NewCorpus()
	for _, rel := range []*relation.Relation{left, right} {
		for _, row := range rel.Rows() {
			for _, v := range row {
				if !v.IsNull() {
					corpus.AddText(v.Text())
				}
			}
		}
	}
	var sc strsim.Scratch
	m := make([][]float64, left.Schema().Len())
	for i := range m {
		m[i] = make([]float64, right.Schema().Len())
		for j := range m[i] {
			var sum float64
			cnt := 0
			for _, dp := range dups {
				a, b := left.Row(dp.LeftRow)[i], right.Row(dp.RightRow)[j]
				if a.IsNull() || b.IsNull() {
					continue
				}
				af, aNum := a.AsFloat()
				bf, bNum := b.AsFloat()
				if aNum && bNum {
					sum += strsim.NumericSim(af, bf)
				} else {
					sum += strsim.SoftTFIDFTermVecs(&sc,
						corpus.TermVec(strsim.Tokenize(a.Text())), corpus.TermVec(strsim.Tokenize(b.Text())))
				}
				cnt++
			}
			if cnt > 0 {
				m[i][j] = sum / float64(cnt)
			}
		}
	}
	return m
}

// requireMatchesReference runs MatchContext and requires its duplicates
// (row ids, Sim bits, Stats) and every matrix cell's bits to equal the
// string-keyed references. It returns the number of duplicates.
func requireMatchesReference(t *testing.T, label string, left, right *relation.Relation, cfg Config) int {
	t.Helper()
	res, err := MatchContext(t.Context(), left, right, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, wantSt := oracleDuplicates(left, right, cfg.withDefaults())
	requireSameDuplicates(t, label, want, res.Duplicates, wantSt, res.Stats)
	wantM := oracleMatrix(left, right, want)
	if len(wantM) != len(res.Matrix) {
		t.Fatalf("%s: matrix has %d rows, reference %d", label, len(res.Matrix), len(wantM))
	}
	for i := range wantM {
		for j := range wantM[i] {
			if math.Float64bits(wantM[i][j]) != math.Float64bits(res.Matrix[i][j]) {
				t.Fatalf("%s: matrix[%d][%d] = %v, reference %v", label, i, j, res.Matrix[i][j], wantM[i][j])
			}
		}
	}
	return len(want)
}

// TestMatchMatchesStringKeyedReference: over several datagen seeds,
// every strategy and worker count, the term-id pipeline reproduces the
// string-keyed Corpus.TermVec / DotTermVecs / SoftTFIDFTermVecs
// results bit for bit.
func TestMatchMatchesStringKeyedReference(t *testing.T) {
	for _, seed := range []int64{7, 42, 123, 2005} {
		left, right := personsPair(seed, 120)
		for _, strategy := range []Config{{}, {Window: 8}} {
			for _, par := range []int{1, 3} {
				cfg := strategy
				cfg.Parallelism = par
				if requireMatchesReference(t, fmt.Sprintf("seed %d %+v", seed, cfg), left, right, cfg) == 0 {
					t.Fatalf("seed %d %+v: no duplicates, so no matrix to compare", seed, cfg)
				}
			}
		}
	}
}

// TestMatchEdgeCellsMatchReference covers cells datagen does not
// produce: NULLs, non-NULL cells without a token, upper-case non-ASCII
// text (whose lower case can change the encoded length), numeric
// cells, and terms only the right side holds. The rows repeat until
// the row-sharded paths engage.
func TestMatchEdgeCellsMatchReference(t *testing.T) {
	build := func(name string, rows ...[4]string) *relation.Relation {
		b := relation.NewBuilder(name, "Name", "City", "Code", "Age")
		for c := 0; c < 12; c++ {
			for _, r := range rows {
				city := r[1]
				if city != "" {
					// A rarer term that differs across the sides, so
					// the duplicates' City cells differ and SoftTFIDF
					// weighs their terms by IDF.
					city += fmt.Sprintf(" %s%d", name, c%3)
				}
				b.AddText(r[0], city, r[2], r[3])
			}
		}
		return b.Build()
	}
	left := build("l",
		[4]string{"ÉMILE ZOLA", "PARIS", "--", "52"},
		[4]string{"", "KÖLN", "...", "3.5"},
		[4]string{"İSMET İNÖNÜ", "", "X-1", ""},
		[4]string{"STRAẞE Meyer", "Berlin", "ΣΑΣ", "17"},
		[4]string{"ǅemal Bijedić", "Sarajevo", "!!", "40"},
		[4]string{"anna schmidt", "hamburg", "a1", "29"},
	)
	right := build("r",
		[4]string{"émile zola", "paris", "--", "52"},
		[4]string{"", "köln onlyright", "...", "3.5"},
		[4]string{"i̇smet i̇nönü", "ankara", "x-1", "80"},
		[4]string{"straße meyer", "", "σας", "17"},
		[4]string{"ǆemal bijedić", "sarajevo onlyright", "", "41"},
		[4]string{"Anna Schmidt", "Hamburg", "A1", "29"},
	)
	if left.Len()+right.Len() < precomputeMinRows {
		t.Fatalf("%d+%d rows do not engage sharding", left.Len(), right.Len())
	}
	if !strings.Contains(right.Row(1)[1].Text(), "onlyright") || !right.Row(1)[0].IsNull() ||
		!left.Row(0)[3].IsNumeric() || left.Row(0)[2].Text() != "--" {
		t.Fatal("fixture lost its NULL, token-less, numeric or right-only cells")
	}
	for _, par := range []int{1, 2, 3} {
		for _, k := range []int{1, 10} {
			cfg := Config{MaxDuplicates: k, Parallelism: par}
			if requireMatchesReference(t, fmt.Sprintf("edge %+v", cfg), left, right, cfg) != k {
				t.Fatalf("edge %+v: fewer than %d duplicates", cfg, k)
			}
		}
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// maxMatchAllocs caps the allocations of one sequential MatchContext
// over the 150 + 150-row datagen pair just above its measured count
// (1 475 on linux/amd64, Go 1.24). With string-keyed corpora, postings
// maps and a strings.Builder per token the same call made 14 172; a
// change that allocates per token or per document again blows through
// the ceiling at once.
const maxMatchAllocs = 1500

// TestMatchAllocCeiling pins the allocation count of one sequential
// match: the tokenise, intern and scoring passes allocate per shard and
// per pass, not per token or per document.
func TestMatchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	left, right := personsPair(2005, 150)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := MatchContext(t.Context(), left, right, Config{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d + %d rows: %v allocs", left.Len(), right.Len(), allocs)
	if allocs > maxMatchAllocs {
		t.Errorf("MatchContext allocs = %v, want <= %d", allocs, maxMatchAllocs)
	}
}
