package engine

import (
	"math/rand"
	"testing"

	"hummer/internal/expr"
	"hummer/internal/relation"
	"hummer/internal/schema"
	"hummer/internal/value"
)

func randomTable(rng *rand.Rand, n int) *relation.Relation {
	b := relation.NewBuilder("t", "a", "b", "c")
	for i := 0; i < n; i++ {
		row := make(relation.Row, 3)
		for j := range row {
			switch rng.Intn(4) {
			case 0:
				row[j] = value.Null
			case 1:
				row[j] = value.NewInt(int64(rng.Intn(10)))
			case 2:
				row[j] = value.NewFloat(rng.Float64() * 10)
			default:
				row[j] = value.NewString(string(rune('a' + rng.Intn(5))))
			}
		}
		b.Add(row...)
	}
	return b.Build()
}

func materializeOrDie(t *testing.T, op Operator) *relation.Relation {
	t.Helper()
	rel, err := MaterializeContext(t.Context(), "out", op)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// rowMultiset renders a relation as a hash-count multiset for
// order-insensitive comparison.
func rowMultiset(rel *relation.Relation) map[uint64]int {
	m := map[uint64]int{}
	for i := 0; i < rel.Len(); i++ {
		m[rel.Row(i).Hash()]++
	}
	return m
}

func sameMultiset(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestPropertyFilterCommutes: σp(σq(R)) = σq(σp(R)).
func TestPropertyFilterCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		rel := randomTable(rng, 50)
		// Draw each predicate once per trial: both filter orders must
		// see the same predicates, or the property being tested is
		// vacuously broken by differing random literals.
		p := expr.NewCmp(expr.GT, expr.NewCol("a"), expr.NewLit(value.NewInt(int64(rng.Intn(10)))))
		q := expr.NewIsNull(expr.NewCol("b"), true)
		pq := materializeOrDie(t, NewFilter(NewFilter(NewScan(rel), p), q))
		qp := materializeOrDie(t, NewFilter(NewFilter(NewScan(rel), q), p))
		if !sameMultiset(rowMultiset(pq), rowMultiset(qp)) {
			t.Fatalf("trial %d: filters do not commute", trial)
		}
	}
}

// TestPropertyOuterUnionPreservesRows: |R ⊎ S| = |R| + |S| and every
// input tuple's values survive in the padded output.
func TestPropertyOuterUnionPreservesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		a := randomTable(rng, rng.Intn(40))
		// Second input with overlapping-but-different schema.
		b := relation.New("u", mustSchema("b", "c", "d"))
		for i := 0; i < rng.Intn(40); i++ {
			b.MustAppend(relation.Row{
				value.NewInt(int64(rng.Intn(5))),
				value.NewString("x"),
				value.NewFloat(rng.Float64()),
			})
		}
		u, err := NewOuterUnion(NewScan(a), NewScan(b))
		if err != nil {
			t.Fatal(err)
		}
		out := materializeOrDie(t, u)
		if out.Len() != a.Len()+b.Len() {
			t.Fatalf("trial %d: %d+%d inputs gave %d outputs", trial, a.Len(), b.Len(), out.Len())
		}
	}
}

// TestPropertySortPreservesMultiset: sorting permutes, never drops.
func TestPropertySortPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		rel := randomTable(rng, 60)
		sorted := materializeOrDie(t, NewSort(NewScan(rel), []SortKey{{Col: "a"}, {Col: "c", Desc: true}}))
		if !sameMultiset(rowMultiset(rel), rowMultiset(sorted)) {
			t.Fatalf("trial %d: sort changed the row multiset", trial)
		}
		// And the result is actually ordered on the first key.
		for i := 1; i < sorted.Len(); i++ {
			if sorted.Value(i-1, "a").Compare(sorted.Value(i, "a")) > 0 {
				t.Fatalf("trial %d: rows %d,%d out of order", trial, i-1, i)
			}
		}
	}
}

// TestPropertyDistinctIdempotent: δ(δ(R)) = δ(R).
func TestPropertyDistinctIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		rel := randomTable(rng, 50)
		once := materializeOrDie(t, NewDistinct(NewScan(rel)))
		twice := materializeOrDie(t, NewDistinct(NewScan(once)))
		if once.Len() != twice.Len() {
			t.Fatalf("trial %d: distinct not idempotent: %d vs %d", trial, once.Len(), twice.Len())
		}
	}
}

// TestPropertyLimitBounds: |limit(R, k)| = min(k, |R|).
func TestPropertyLimitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(40)
		rel := randomTable(rng, n)
		k := rng.Intn(50)
		out := materializeOrDie(t, NewLimit(NewScan(rel), k))
		want := k
		if n < k {
			want = n
		}
		if out.Len() != want {
			t.Fatalf("trial %d: limit(%d) over %d rows gave %d", trial, k, n, out.Len())
		}
	}
}

// TestPropertyGroupPartition: the group counts sum to the input size.
func TestPropertyGroupPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cnt, _ := LookupAgg("count")
	for trial := 0; trial < 30; trial++ {
		rel := randomTable(rng, 60)
		g, err := NewGroup(NewScan(rel), []string{"a"}, []AggSpec{{Factory: cnt, Col: "*", As: "n"}})
		if err != nil {
			t.Fatal(err)
		}
		out := materializeOrDie(t, g)
		var total int64
		for i := 0; i < out.Len(); i++ {
			total += out.Value(i, "n").Int()
		}
		if total != int64(rel.Len()) {
			t.Fatalf("trial %d: group counts sum to %d, want %d", trial, total, rel.Len())
		}
	}
}

func mustSchema(names ...string) *schema.Schema {
	return schema.FromNames(names...)
}
