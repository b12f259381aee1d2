package dupdetect

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hummer/internal/datagen"
	"hummer/internal/relation"
	"hummer/internal/strsim"
	"hummer/internal/value"
)

// refUpperBound is the reference filter bound: the histogram bound
// editSimBound runs for every non-numeric attribute, with no cheaper
// check in front of it. upperBound must return the same bits for
// every pair.
func refUpperBound(m *measure, a, b int) float64 {
	var num, den, evidence float64
	any := false
	ra, rb := m.row(a), m.row(b)
	for k := range m.cols {
		if ra[k].null || rb[k].null {
			continue
		}
		any = true
		evidence += (ra[k].weight + rb[k].weight) / 2
		var bound float64
		if ra[k].isNum && rb[k].isNum {
			bound = m.numericSim(ra[k].num, rb[k].num, k)
		} else {
			bound = editSimBound(len(ra[k].runes), len(rb[k].runes),
				ra[k].counts, rb[k].counts)
		}
		if bound >= matchCutoff {
			w := (ra[k].weight + rb[k].weight) / 2
			num += w * bound
			den += w
		}
	}
	if !any || den == 0 {
		return 0
	}
	return num / den * m.evidenceFactor(evidence)
}

// refCandidates is the reference candidate enumeration of the
// key-based strategies, written from their definitions without the
// product's partner functions. Window walks the stable sort by key and
// pairs every row with the next Window rows; Blocking walks every
// block of every pass in sorted key order, counts the oversized
// blocks, and keeps each pair once through a seen set. The pairs come
// back sorted by (A, B).
func refCandidates(m *measure, cfg Config) (pairs [][2]int, skipped, skippedRows int) {
	n := len(m.texts)
	add := func(a, b int) {
		pairs = append(pairs, [2]int{min(a, b), max(a, b)})
	}
	if cfg.Window > 0 {
		keys := make([]string, n)
		for i := range keys {
			for k, c := range m.row(i) {
				if !c.null {
					keys[i] += m.texts[i][k] + " "
				}
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })
		for pos := range order {
			for d := 1; d <= cfg.Window && pos+d < n; d++ {
				add(order[pos], order[pos+d])
			}
		}
	} else {
		prefix := func(rs []rune, p int) string { return string(rs[:min(len(rs), p)]) }
		seen := map[[2]int]bool{}
		for k := range m.cols {
			blocks := map[string][]int{}
			for i := 0; i < n; i++ {
				c := m.row(i)[k]
				if key := prefix(c.runes, cfg.Blocking); !c.null && key != "" {
					blocks[key] = append(blocks[key], i)
				}
			}
			for _, key := range slices.Sorted(maps.Keys(blocks)) {
				rows := blocks[key]
				if len(rows) > maxBlockRows {
					skipped++
					skippedRows += len(rows)
					continue
				}
				for x := range rows {
					for _, b := range rows[x+1:] {
						if p := [2]int{rows[x], b}; !seen[p] {
							seen[p] = true
							add(rows[x], b)
						}
					}
				}
			}
		}
	}
	slices.SortFunc(pairs, func(p, q [2]int) int {
		return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1]))
	})
	return pairs, skipped, skippedRows
}

// refDetect is the reference detection: a sequential measure, the
// candidates consumed in one plain loop (an explicit double loop for
// the exhaustive strategy, refCandidates otherwise), each filtered by
// refUpperBound and scored by similarity, then the transitive closure.
func refDetect(t *testing.T, rel *relation.Relation, cfg Config) *Result {
	t.Helper()
	cfg = cfg.withDefaults()
	attrs := cfg.Attributes
	if len(attrs) == 0 {
		attrs = SelectAttributes(rel)
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = rel.Schema().MustLookup(a)
	}
	seq := cfg
	seq.Parallelism = 1
	m, err := newMeasure(context.Background(), rel, cols, seq)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{SelectedAttributes: attrs}
	var sc strsim.Scratch
	score := func(a, b int) {
		res.Stats.CandidatePairs++
		if !cfg.DisableFilter && refUpperBound(m, a, b) < cfg.Threshold {
			res.Stats.FilteredOut++
			return
		}
		res.Stats.Compared++
		switch sim := m.similarity(a, b, &sc); {
		case sim >= cfg.Threshold:
			res.Duplicates = append(res.Duplicates, ScoredPair{A: a, B: b, Sim: sim})
		case sim >= cfg.Threshold*0.9:
			res.Borderline = append(res.Borderline, ScoredPair{A: a, B: b, Sim: sim})
		}
	}
	if cfg.Window == 0 && cfg.Blocking == 0 {
		for a := 0; a < rel.Len(); a++ {
			for b := a + 1; b < rel.Len(); b++ {
				score(a, b)
			}
		}
	} else {
		pairs, skipped, skippedRows := refCandidates(m, cfg)
		for _, p := range pairs {
			score(p[0], p[1])
		}
		res.Stats.SkippedBlocks, res.Stats.SkippedBlockRows = skipped, skippedRows
	}
	dsu := newUnionFind(rel.Len())
	for _, p := range res.Duplicates {
		dsu.union(p.A, p.B)
	}
	res.ObjectIDs, res.Clusters = dsu.clusters()
	return res
}

// requireSameResult compares two detection results field by field, the
// scored pairs by row ids and the exact bits of every Sim.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats %+v, oracle %+v", label, got.Stats, want.Stats)
	}
	for _, f := range []struct {
		name      string
		want, got []ScoredPair
	}{{"duplicate", want.Duplicates, got.Duplicates}, {"borderline", want.Borderline, got.Borderline}} {
		if len(f.want) != len(f.got) {
			t.Fatalf("%s: %d %s pairs, oracle %d", label, len(f.got), f.name, len(f.want))
		}
		for i, w := range f.want {
			g := f.got[i]
			if w.A != g.A || w.B != g.B || math.Float64bits(w.Sim) != math.Float64bits(g.Sim) {
				t.Fatalf("%s: %s pair %d is %+v, oracle %+v", label, f.name, i, g, w)
			}
		}
	}
	if !reflect.DeepEqual(want.ObjectIDs, got.ObjectIDs) || !reflect.DeepEqual(want.Clusters, got.Clusters) {
		t.Fatalf("%s: clustering differs\ngot  %v\nwant %v", label, got.ObjectIDs, want.ObjectIDs)
	}
	if !reflect.DeepEqual(want.SelectedAttributes, got.SelectedAttributes) {
		t.Fatalf("%s: attributes %v, oracle %v", label, got.SelectedAttributes, want.SelectedAttributes)
	}
}

// datagenDirtyObservation is the detection workload's shape of input:
// every seeded person observed three times with independent typos and
// NULLs, with each row's true entity.
func datagenDirtyObservation(seed int64, entities int) *datagen.Observation {
	ents := datagen.Persons.Generate(seed, entities)
	return datagen.DirtyTable(datagen.Persons, ents, 3, datagen.SourceSpec{
		Alias: "dirty", TypoRate: 0.15, NullRate: 0.1, Seed: seed + 3,
	})
}

// datagenDirty is datagenDirtyObservation's relation.
func datagenDirty(seed int64, entities int) *relation.Relation {
	return datagenDirtyObservation(seed, entities).Rel
}

// TestDetectMatchesOracle: DetectContext equals the brute-force reference —
// Stats, pair order, Sim bits and clusters — at every worker count,
// seed and candidate strategy.
func TestDetectMatchesOracle(t *testing.T) {
	strategies := []Config{
		{},
		{Threshold: 0.6},
		{Window: 4},
		{Blocking: 3},
	}
	for _, seed := range []int64{42, 123, 456} {
		rel := datagenDirty(seed, 60)
		if n := rel.Len(); n < measureShardMinRows || n*(n-1)/2 <= 3*pairChunkSize {
			t.Fatalf("seed %d: %d rows engage neither sharding nor chunking", seed, n)
		}
		for _, base := range strategies {
			want := refDetect(t, rel, base)
			if want.Stats.Compared == 0 || len(want.Duplicates) == 0 {
				t.Fatalf("seed %d %+v: oracle compared %d pairs, found %d duplicates",
					seed, base, want.Stats.Compared, len(want.Duplicates))
			}
			for _, par := range []int{1, 2, 3, 8} {
				cfg := base
				cfg.Parallelism = par
				got, err := DetectContext(t.Context(), rel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("seed %d %+v", seed, cfg), want, got)
			}
		}
	}
}

// headRows returns the first n rows of rel as a new relation.
func headRows(t *testing.T, rel *relation.Relation, n int) *relation.Relation {
	t.Helper()
	out := relation.New(rel.Name(), rel.Schema())
	for i := 0; i < n; i++ {
		if err := out.Append(rel.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestExhaustiveFoldMatchesOracle: the folded exhaustive path equals
// the plain double loop — Stats, pair order, Sim bits and clusters —
// for tiny and odd row counts (the middle row of an odd n belongs to
// one shard only) and for worker counts above ⌈n/2⌉ (capped). Each
// cell is checked through DetectContext and through scoreRows with no
// partner function called directly at min(Parallelism, ⌈n/2⌉) shards, so the fold runs
// even where the single-chunk rule keeps DetectContext inline.
func TestExhaustiveFoldMatchesOracle(t *testing.T) {
	full := datagenDirty(42, 16)
	attrs := SelectAttributes(full)
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = full.Schema().MustLookup(a)
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 47} {
		rel := headRows(t, full, n)
		base := Config{Attributes: attrs, Threshold: 0.6}
		want := refDetect(t, rel, base)
		if n == 47 && (want.Stats.Compared == 0 || n*(n-1)/2 <= pairChunkSize) {
			t.Fatalf("%d rows: oracle compared %d pairs in one chunk", n, want.Stats.Compared)
		}
		m, err := newMeasure(t.Context(), rel, cols, base.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 3, 8, 64} {
			cfg := base
			cfg.Parallelism = par
			label := fmt.Sprintf("n %d p %d", n, par)
			got, err := DetectContext(t.Context(), rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, label, want, got)

			out, err := scoreRows(t.Context(), m, cfg.withDefaults(), min(par, (n+1)/2), nil)
			if err != nil {
				t.Fatal(err)
			}
			folded := &Result{SelectedAttributes: attrs, Duplicates: out.dups, Borderline: out.borderline, Stats: out.stats}
			dsu := newUnionFind(n)
			for _, p := range out.dups {
				dsu.union(p.A, p.B)
			}
			folded.ObjectIDs, folded.Clusters = dsu.clusters()
			requireSameResult(t, label+" direct", want, folded)
		}
	}
}

// edgeRelation holds the cells datagen never produces: non-ASCII and
// combining-mark text, values with more than 64 distinct runes, empty
// strings beside NULLs, all-NULL rows, and one column mixing numbers
// with strings. Its rows repeat, with a per-copy suffix on Note, until
// the sharded and chunked paths engage.
func edgeRelation() *relation.Relation {
	var cjk, cjkTypo strings.Builder
	for r := rune(0x4E00); r < 0x4E00+80; r++ {
		cjk.WriteRune(r)
		if r == 0x4E00+40 {
			cjkTypo.WriteRune(0x9FA0)
		} else {
			cjkTypo.WriteRune(r)
		}
	}
	s, null := value.NewString, value.Null
	rows := []relation.Row{
		{s("Jürgen Müller"), value.NewInt(42), s("köln")},
		{s("Jurgen Muller"), s("42"), s("koln")},
		{s("José Ñúñez"), value.NewFloat(42.5), s("são paulo")},
		{s("José Ñúñez"), s("forty-two"), s("são paulo")},
		{s(cjk.String()), value.NewInt(7), s("北京")},
		{s(cjkTypo.String()), value.NewInt(7), s("北京 北京")},
		{s(""), s(""), s("")},
		{s(""), null, s("x")},
		{null, null, null},
		{s("anna!"), s("a!é)"), s("!!!!")},
		{s("anna"), s("a)é!"), s("aaaa")},
	}
	b := relation.NewBuilder("edge", "Name", "Mixed", "Note")
	for c := 0; c < 14; c++ {
		for i, r := range rows {
			note := r[2]
			if !note.IsNull() && (c+i)%3 != 0 {
				note = s(fmt.Sprintf("%s %d", note.Text(), c))
			}
			b.Add(r[0], r[1], note)
		}
	}
	return b.Build()
}

// TestDetectOracleEdgeCases runs the reference against the edge cells,
// a single-row relation, and the NoContradictionPenalty ablation.
func TestDetectOracleEdgeCases(t *testing.T) {
	edge := edgeRelation()
	if n := edge.Len(); n < measureShardMinRows || n*(n-1)/2 <= pairChunkSize {
		t.Fatalf("%d edge rows engage neither sharding nor chunking", n)
	}
	single := relation.NewBuilder("one", "Name", "Mixed", "Note").
		Add(value.NewString("anna"), value.NewInt(1), value.Null).Build()
	all := []string{"Name", "Mixed", "Note"}
	for _, tc := range []struct {
		label string
		rel   *relation.Relation
		cfg   Config
	}{
		{"edge selected", edge, Config{}},
		{"edge all", edge, Config{Attributes: all}},
		{"edge low threshold", edge, Config{Attributes: all, Threshold: 0.5}},
		{"edge no penalty", edge, Config{Attributes: all, Threshold: 0.5, NoContradictionPenalty: true}},
		{"edge no filter", edge, Config{Attributes: all, DisableFilter: true}},
		{"edge window", edge, Config{Attributes: all, Window: 5}},
		{"edge blocking", edge, Config{Attributes: all, Blocking: 2}},
		{"single", single, Config{Attributes: all}},
	} {
		want := refDetect(t, tc.rel, tc.cfg)
		for _, par := range []int{1, 2, 3, 8} {
			cfg := tc.cfg
			cfg.Parallelism = par
			got, err := DetectContext(t.Context(), tc.rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%s p %d", tc.label, par), want, got)
		}
	}
}

// maxDetectAllocs caps the allocations of one sequential DetectContext over
// the 201-row datagen fixture at its measured count (6 214 before cells
// were built once per distinct tuple from one tokenization). Per-cell rune
// slices and histograms dominate; a change that starts allocating per pair blows through it
// at once.
const maxDetectAllocs = 2652

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func TestDetectAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rel := datagenDirty(42, 67)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DetectContext(t.Context(), rel, Config{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxDetectAllocs {
		t.Errorf("Detect allocs = %v, want <= %d", allocs, maxDetectAllocs)
	}
}
