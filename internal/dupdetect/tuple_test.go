package dupdetect

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hummer/internal/relation"
	"hummer/internal/strsim"
	"hummer/internal/value"
)

// TestMeasureSymmetricBits pins what scoring each tuple pair once
// relies on: similarity and upperBound return the same bits for (a, b)
// and (b, a), so a tuple pair's score holds for its row pairs in either
// order. The datagen rows carry numeric and NULL cells.
func TestMeasureSymmetricBits(t *testing.T) {
	for _, seed := range []int64{7, 42, 2005} {
		rel := datagenDirty(seed, 40)
		for _, attrs := range [][]string{SelectAttributes(rel), {"Name"}, {"Age", "City"}} {
			cols := make([]int, len(attrs))
			for i, a := range attrs {
				cols[i] = rel.Schema().MustLookup(a)
			}
			for _, cfg := range []Config{{Threshold: 0.8}, {Threshold: 0.8, NoContradictionPenalty: true}} {
				m, err := newMeasure(t.Context(), rel, cols, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var sc strsim.Scratch
				for a := 0; a < rel.Len(); a++ {
					for b := a + 1; b < rel.Len(); b++ {
						s1, s2 := m.similarity(a, b, &sc), m.similarity(b, a, &sc)
						u1, u2 := m.upperBound(a, b), m.upperBound(b, a)
						if math.Float64bits(s1) != math.Float64bits(s2) || math.Float64bits(u1) != math.Float64bits(u2) {
							t.Fatalf("seed %d %v %+v rows (%d,%d): similarity %v / %v, upperBound %v / %v",
								seed, attrs, cfg, a, b, s1, s2, u1, u2)
						}
					}
				}
			}
		}
	}
}

// tupleRelation cycles its rows through a few cell states so that
// tuples repeat: "Bob" beside "bob" (one tuple), NULL beside "" (two),
// string "42" beside the numbers 42 and 42.0 (two tuples, the numbers
// sharing one). Its first and last rows are equal, so one tuple holds
// rows on both sides of the fold.
func tupleRelation(rows int) *relation.Relation {
	s := value.NewString
	names := []value.Value{s("Bob"), s("bob"), value.Null, s(""), s("Bobby"), s("Robert"), s("bob ")}
	mixed := []value.Value{value.NewInt(42), s("42"), value.NewFloat(42), value.Null, s(""), value.NewInt(43)}
	b := relation.NewBuilder("tuples", "Name", "Mixed")
	for i := 0; i < rows-1; i++ {
		b.Add(names[i%len(names)], mixed[(i/2)%len(mixed)])
	}
	b.Add(names[0], mixed[0])
	return b.Build()
}

// requireOwnCells checks that every row of rel reads its own cells'
// state through its tuple — NULL-ness, lower-cased runes and numeric
// image, derived here from the raw values. The oracle shares the
// measure, so only this catches rows wrongly merged into one tuple.
func requireOwnCells(t *testing.T, label string, rel *relation.Relation, attrs []string) {
	t.Helper()
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = rel.Schema().MustLookup(a)
	}
	m, err := newMeasure(t.Context(), rel, cols, Default())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rel.Len(); i++ {
		for k, j := range cols {
			v, c := rel.Row(i)[j], m.row(i)[k]
			f, isNum := v.AsFloat()
			if c.null != v.IsNull() || string(c.runes) != strings.ToLower(v.Text()) || c.isNum != isNum || c.num != f {
				t.Fatalf("%s: row %d attr %s is %v, reads tuple %d's cell %+v", label, i, attrs[k], v, m.tupleOf[i], c)
			}
		}
	}
}

// TestDetectTupleEdgeCases holds the tuple fold to the row-level
// oracle where tuples collide or cannot: every row identical, every
// row distinct, all-NULL tuples, NULL beside "", case-only differences,
// a string beside an equal number, and a tuple on both sides of the
// fold — with and without the filter.
func TestDetectTupleEdgeCases(t *testing.T) {
	build := func(name string, n int, row func(i int) (value.Value, value.Value)) *relation.Relation {
		b := relation.NewBuilder(name, "Name", "Mixed")
		for i := 0; i < n; i++ {
			b.Add(row(i))
		}
		return b.Build()
	}
	identical := build("identical", 60, func(int) (value.Value, value.Value) {
		return value.NewString("Anna Smith"), value.NewInt(42)
	})
	distinct := build("distinct", 60, func(i int) (value.Value, value.Value) {
		return value.NewString(fmt.Sprintf("anna smith %d", i)), value.NewInt(int64(i % 3))
	})
	nulls := build("nulls", 60, func(i int) (value.Value, value.Value) {
		if i%3 == 0 {
			return value.Null, value.Null
		}
		return value.NewString("anna"), value.NewInt(int64(i % 2))
	})
	all := []string{"Name", "Mixed"}
	for _, tc := range []struct {
		label string
		rel   *relation.Relation
		cfg   Config
	}{
		{"identical", identical, Config{Attributes: all}},
		{"identical no filter", identical, Config{Attributes: all, DisableFilter: true}},
		{"distinct", distinct, Config{Attributes: all, Threshold: 0.6}},
		{"null-only tuples", nulls, Config{Attributes: all, Threshold: 0.5}},
		{"mixed", tupleRelation(61), Config{Attributes: all, Threshold: 0.5}},
		{"mixed name", tupleRelation(61), Config{Attributes: []string{"Name"}, Threshold: 0.5}},
		{"mixed no filter", tupleRelation(61), Config{Attributes: all, Threshold: 0.5, DisableFilter: true}},
		{"mixed no penalty", tupleRelation(61), Config{Attributes: all, Threshold: 0.5, NoContradictionPenalty: true}},
	} {
		requireOwnCells(t, tc.label, tc.rel, tc.cfg.Attributes)
		want := refDetect(t, tc.rel, tc.cfg)
		if len(want.Duplicates) == 0 && tc.label != "distinct" {
			t.Fatalf("%s: oracle found no duplicates", tc.label)
		}
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

// fuzzAlphabet is the low-cardinality cell alphabet of
// FuzzDetectMatchesOracle: few enough values that fuzzed rows collide
// into shared tuples, and near enough to one another that pairs pass
// the filter.
var fuzzAlphabet = []value.Value{
	value.Null, value.NewString(""), value.NewString("ann"), value.NewString("Ann"),
	value.NewString("anna"), value.NewString("anne"), value.NewString("42"), value.NewInt(42),
	value.NewFloat(42), value.NewInt(41), value.NewString("bob"), value.NewString("ann bob"),
}

// FuzzDetectMatchesOracle builds a relation of up to 40 rows over
// fuzzAlphabet from the input's bytes — the first byte picks the
// threshold and the ablations, every following pair of bytes is one
// row — and requires every row to read its own cells, and the
// exhaustive detection to equal the row-level oracle, through
// DetectContext and through scoreRows folded over several shards.
func FuzzDetectMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 2, 3, 3, 2, 0, 7, 6, 8, 7, 7, 2, 3})
	f.Add([]byte{0x45, 1, 0, 0, 1, 4, 5, 5, 4, 11, 10, 0, 0, 1, 0})
	f.Add([]byte{0x8a, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{
			Attributes:             []string{"Name", "Mixed"},
			Threshold:              0.4 + 0.1*float64(data[0]%6),
			DisableFilter:          data[0]&0x40 != 0,
			NoContradictionPenalty: data[0]&0x80 != 0,
		}
		b := relation.NewBuilder("fuzz", "Name", "Mixed")
		for i := 1; i+1 < len(data) && i < 81; i += 2 {
			b.Add(fuzzAlphabet[int(data[i])%len(fuzzAlphabet)], fuzzAlphabet[int(data[i+1])%len(fuzzAlphabet)])
		}
		rel := b.Build()
		requireOwnCells(t, "fuzz", rel, cfg.Attributes)
		want := refDetect(t, rel, cfg)
		got, err := DetectContext(t.Context(), rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "DetectContext", want, got)

		m, err := newMeasure(t.Context(), rel, []int{0, 1}, cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3} {
			out, err := scoreRows(t.Context(), m, cfg.withDefaults(), min(workers, (m.tuples.len()+1)/2), nil)
			if err != nil {
				t.Fatal(err)
			}
			folded := &Result{SelectedAttributes: cfg.Attributes, Duplicates: out.dups, Borderline: out.borderline, Stats: out.stats}
			dsu := newUnionFind(rel.Len())
			for _, p := range out.dups {
				dsu.union(p.A, p.B)
			}
			folded.ObjectIDs, folded.Clusters = dsu.clusters()
			requireSameResult(t, fmt.Sprintf("scoreRows on %d workers", workers), want, folded)
		}
	})
}
