package dumas

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"hummer/internal/datagen"
	"hummer/internal/relation"
	"hummer/internal/strsim"
)

// oracleDuplicates is the reference duplicate search every scoring
// strategy must reproduce bit for bit: a sequential corpus and term
// vectors, every left×right pair that cfg's candidate predicate
// accepts scored with strsim.DotTermVecs, then the ranked 1:1 pick of
// cfg.MaxDuplicates pairs at or above cfg.MinTupleSim.
func oracleDuplicates(left, right *relation.Relation, cfg Config) ([]TuplePair, Stats) {
	corpus := strsim.NewCorpus()
	var lk, rk []string
	tokens := func(rel *relation.Relation, keys *[]string) [][]string {
		out := make([][]string, rel.Len())
		for i := range out {
			text := tupleText(rel.Row(i))
			*keys = append(*keys, strings.ToLower(text))
			out[i] = strsim.Tokenize(text)
			corpus.AddDoc(out[i])
		}
		return out
	}
	lt, rt := tokens(left, &lk), tokens(right, &rk)
	lv := make([]strsim.TermVec, len(lt))
	for i, t := range lt {
		lv[i] = corpus.TermVec(t)
	}
	rv := make([]strsim.TermVec, len(rt))
	for i, t := range rt {
		rv[i] = corpus.TermVec(t)
	}
	candidate := func(li, ri int) bool { return shareTerm(lv[li], rv[ri]) }
	if cfg.Window > 0 {
		candidate = windowPredicate(lk, rk, cfg.Window)
	}
	minSim, maxDups := cfg.MinTupleSim, cfg.MaxDuplicates
	var stats Stats
	var pairs []TuplePair
	for li := range lv {
		for ri := range rv {
			if !candidate(li, ri) {
				continue
			}
			stats.CandidatePairs++
			if sim := strsim.DotTermVecs(lv[li], rv[ri]); sim >= minSim {
				stats.Scored++
				pairs = append(pairs, TuplePair{LeftRow: li, RightRow: ri, Sim: sim})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Sim != pairs[j].Sim {
			return pairs[i].Sim > pairs[j].Sim
		}
		if pairs[i].LeftRow != pairs[j].LeftRow {
			return pairs[i].LeftRow < pairs[j].LeftRow
		}
		return pairs[i].RightRow < pairs[j].RightRow
	})
	usedL, usedR := map[int]bool{}, map[int]bool{}
	var top []TuplePair
	for _, p := range pairs {
		if len(top) >= maxDups {
			break
		}
		if usedL[p.LeftRow] || usedR[p.RightRow] {
			continue
		}
		usedL[p.LeftRow], usedR[p.RightRow] = true, true
		top = append(top, p)
	}
	return top, stats
}

func shareTerm(a, b strsim.TermVec) bool {
	set := map[string]bool{}
	for _, t := range a.Terms {
		set[t] = true
	}
	for _, t := range b.Terms {
		if set[t] {
			return true
		}
	}
	return false
}

// windowPredicate: cross-side tuples within w positions of each other
// when left and right sort keys are merged and ordered by (key, side,
// row).
func windowPredicate(lk, rk []string, w int) func(li, ri int) bool {
	type entry struct {
		key       string
		side, row int
	}
	var entries []entry
	for i, k := range lk {
		entries = append(entries, entry{k, 0, i})
	}
	for i, k := range rk {
		entries = append(entries, entry{k, 1, i})
	}
	sort.Slice(entries, func(x, y int) bool {
		a, b := entries[x], entries[y]
		return a.key < b.key || a.key == b.key && (a.side < b.side || a.side == b.side && a.row < b.row)
	})
	lpos, rpos := make([]int, len(lk)), make([]int, len(rk))
	for p, e := range entries {
		if e.side == 0 {
			lpos[e.row] = p
		} else {
			rpos[e.row] = p
		}
	}
	return func(li, ri int) bool {
		d := lpos[li] - rpos[ri]
		return -w <= d && d <= w
	}
}

// requireSameDuplicates compares duplicates by row ids and the exact
// bits of every Sim, and the stats exactly.
func requireSameDuplicates(t *testing.T, label string, want, got []TuplePair, wantSt, gotSt Stats) {
	t.Helper()
	if wantSt != gotSt {
		t.Fatalf("%s: stats %+v, oracle %+v", label, gotSt, wantSt)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d duplicates, oracle %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.LeftRow != g.LeftRow || w.RightRow != g.RightRow || math.Float64bits(w.Sim) != math.Float64bits(g.Sim) {
			t.Fatalf("%s: duplicate %d is %+v, oracle %+v", label, i, g, w)
		}
	}
}

// personsPair is the benchmark's shape of input: two shuffled, dirty
// observations of the same datagen persons, one with renamed columns.
func personsPair(seed int64, n int) (*relation.Relation, *relation.Relation) {
	ents := datagen.Persons.Generate(seed, n)
	left := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
		Alias: "s1", TypoRate: 0.1, NullRate: 0.05, Seed: seed + 1,
	})
	right := datagen.ObserveShuffled(datagen.Persons, ents, datagen.SourceSpec{
		Alias: "s2", Renames: map[string]string{"Name": "FullName", "City": "Town"},
		TypoRate: 0.1, NullRate: 0.05, Seed: seed + 2,
	})
	return left.Rel, right.Rel
}

// TestFindDuplicatesMatchesOracle: every strategy's duplicate search
// equals the brute-force DotTermVecs reference over its candidate
// predicate — row ids, Sim bits and Stats — at every worker count,
// seed, k and MinTupleSim.
func TestFindDuplicatesMatchesOracle(t *testing.T) {
	for _, seed := range []int64{42, 123, 456} {
		left, right := personsPair(seed, 120)
		if left.Len()+right.Len() < precomputeMinRows || left.Len()*right.Len() <= pairChunk {
			t.Fatalf("seed %d: %d+%d rows do not engage sharding", seed, left.Len(), right.Len())
		}
		for _, strategy := range []Config{{}, {Window: 8}} {
			for _, k := range []int{1, 3, 10} {
				for _, minSim := range []float64{0, 0.01, 0.25} {
					cfg := strategy
					cfg.MaxDuplicates, cfg.MinTupleSim = k, minSim
					want, wantSt := oracleDuplicates(left, right, cfg)
					if wantSt.CandidatePairs == 0 {
						t.Fatalf("seed %d %+v: oracle has no candidates", seed, cfg)
					}
					for _, par := range []int{1, 2, 3, 8} {
						cfg.Parallelism = par
						got, gotSt, err := findDuplicates(context.Background(), left, right, cfg)
						if err != nil {
							t.Fatal(err)
						}
						requireSameDuplicates(t, fmt.Sprintf("seed %d %+v", seed, cfg),
							want, got, wantSt, gotSt)
					}
				}
			}
		}
	}
}

// TestFindDuplicatesOracleEdgeCases covers the inputs datagen never
// produces: all-NULL and token-less rows (no postings, no candidates),
// repeated tokens (tf > 1), non-ASCII text, exact ties, and
// single-row relations on either side. The mixed case repeats its rows
// until the row-sharded paths engage.
func TestFindDuplicatesOracleEdgeCases(t *testing.T) {
	build := func(name string, copies int, rows ...[2]string) *relation.Relation {
		b := relation.NewBuilder(name, "A", "B")
		for c := 0; c < copies; c++ {
			for _, r := range rows {
				b.AddText(r[0], r[1])
			}
		}
		return b.Build()
	}
	left := build("l", 10,
		[2]string{"", ""},
		[2]string{"--", "--"},
		[2]string{"anna anna anna", "berlin"},
		[2]string{"Jürgen Müller", "Köln"},
		[2]string{"José Ñúñez", "São Paulo"},
		[2]string{"li wei", "北京 北京"},
		[2]string{"anna schmidt", "berlin"},
		[2]string{"anna schmidt", "berlin"},
	)
	right := build("r", 10,
		[2]string{"anna", "berlin berlin"},
		[2]string{"", ""},
		[2]string{"jurgen muller", "köln"},
		[2]string{"josé ñúñez", "sao paulo"},
		[2]string{"Li Wei", "北京"},
		[2]string{"...", "!!"},
		[2]string{"anna schmidt", "berlin"},
	)
	if left.Len()+right.Len() < precomputeMinRows {
		t.Fatalf("%d+%d rows do not engage sharding", left.Len(), right.Len())
	}
	single := build("one", 1, [2]string{"anna schmidt", "berlin"})
	for _, tc := range []struct {
		label       string
		left, right *relation.Relation
	}{
		{"mixed", left, right},
		{"single left", single, right},
		{"single right", left, single},
		{"single both", single, single},
	} {
		for _, k := range []int{1, 3, 10} {
			for _, minSim := range []float64{0, 0.01, 0.25} {
				want, wantSt := oracleDuplicates(tc.left, tc.right, Config{MaxDuplicates: k, MinTupleSim: minSim})
				for _, par := range []int{1, 2, 3, 8} {
					cfg := Config{MaxDuplicates: k, MinTupleSim: minSim, Parallelism: par}
					got, gotSt, err := findDuplicates(context.Background(), tc.left, tc.right, cfg)
					if err != nil {
						t.Fatal(err)
					}
					requireSameDuplicates(t, fmt.Sprintf("%s k %d minSim %v p %d", tc.label, k, minSim, par),
						want, got, wantSt, gotSt)
				}
			}
		}
	}
}
