package engine

import (
	"fmt"
	"math"
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

// joinPair builds a seeded probe/build pair whose inner join on k has
// exactly n rows: matched keys repeat on both sides (ints on one side
// equal to floats on the other, and strings), among NULL, NaN and
// unmatched keys, all shuffled. Each row's second cell is its position.
func joinPair(rng *rand.Rand, n int) (left, right *relation.Relation) {
	var lk, rk []value.Value
	for key := 0; n > 0; key++ {
		lm, rm := 1+rng.Intn(4), 1+rng.Intn(4)
		if lm*rm > n {
			lm, rm = n, 1
		}
		n -= lm * rm
		l, r := value.NewInt(int64(key)), value.NewFloat(float64(key))
		switch key % 3 {
		case 1:
			l, r = r, l
		case 2:
			l = value.NewString(fmt.Sprint("s", key))
			r = l
		}
		for range lm {
			lk = append(lk, l)
		}
		for range rm {
			rk = append(rk, r)
		}
	}
	for range 1 + rng.Intn(8) {
		lk = append(lk, value.Null, value.NewFloat(math.NaN()), value.NewInt(-1))
		rk = append(rk, value.Null, value.NewFloat(math.NaN()), value.NewString("-2"))
	}
	build := func(name string, keys []value.Value) *relation.Relation {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b := relation.NewBuilder(name, "k", name+"pos")
		for i, k := range keys {
			b.Add(k, value.NewInt(int64(i)))
		}
		return b.Build()
	}
	return build("l", lk), build("r", rk)
}

// nestedLoop is the reference join: left order crossed with right
// order, keeping pairs whose keys are non-NULL and Equal (on is nil for
// a cross product).
func nestedLoop(left, right *relation.Relation, on func(l, r relation.Row) bool) []relation.Row {
	var out []relation.Row
	for _, l := range left.Rows() {
		for _, r := range right.Rows() {
			if on == nil || on(l, r) {
				out = append(out, append(l.Clone(), r...))
			}
		}
	}
	return out
}

// where keeps the reference rows on which pred, bound to s, is TRUE.
func where(t *testing.T, rows []relation.Row, s *schema.Schema, pred expr.Expr) []relation.Row {
	t.Helper()
	if err := pred.Bind(s); err != nil {
		t.Fatal(err)
	}
	var out []relation.Row
	for _, r := range rows {
		if expr.Truthy(pred.Eval(r)) {
			out = append(out, r)
		}
	}
	return out
}

func sameRows(t *testing.T, what string, got *relation.Relation, want []relation.Row) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), len(want))
	}
	for i, w := range want {
		if !got.Row(i).Equal(w) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got.Row(i), w)
		}
	}
}

// joinSizes cross every output-slab boundary.
var joinSizes = []int{0, 1, 255, 256, 257, 600, 1500}

// TestPropertyHashJoinMatchesNestedLoop: the hash join equals, row for
// row, a nested loop over the same inputs, and so does a WHERE over it
// (which hands the rows it drops back to the join's slab).
func TestPropertyHashJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	on := func(l, r relation.Row) bool { return !l[0].IsNull() && l[0].Equal(r[0]) }
	lt := func() expr.Expr { return expr.NewCmp(expr.LT, expr.NewCol("lpos"), expr.NewCol("rpos")) }
	for _, n := range joinSizes {
		for trial := range 3 {
			left, right := joinPair(rng, n)
			want := nestedLoop(left, right, on)
			if len(want) != n {
				t.Fatalf("joinPair(%d) joins to %d rows", n, len(want))
			}
			join := func() *HashJoin {
				j, err := NewHashJoin(NewScan(left), NewScan(right), "k", "k")
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			what := fmt.Sprintf("join n=%d trial %d", n, trial)
			sameRows(t, what, materializeOrDie(t, join()), want)
			j := join()
			sameRows(t, what+" WHERE", materializeOrDie(t, NewFilter(j, lt())), where(t, want, j.Schema(), lt()))
		}
	}
}

// TestPropertyCrossMatchesNestedLoop: the cross product equals, row for
// row, a nested loop over the same inputs, with and without a WHERE.
func TestPropertyCrossMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, dims := range [][2]int{{0, 7}, {7, 0}, {1, 1}, {15, 17}, {16, 16}, {257, 1}, {24, 25}, {40, 40}} {
		left, right := randomTable(rng, dims[0]), randomTable(rng, dims[1])
		cross := func() *Cross {
			c, err := NewCross(NewScan(left), NewScan(right))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		what := fmt.Sprintf("cross %dx%d", dims[0], dims[1])
		want := nestedLoop(left, right, nil)
		sameRows(t, what, materializeOrDie(t, cross()), want)
		lt := func() expr.Expr { return expr.NewCmp(expr.LT, expr.NewCol("a"), expr.NewCol("a_r")) }
		c := cross()
		sameRows(t, what+" WHERE", materializeOrDie(t, NewFilter(c, lt())), where(t, want, c.Schema(), lt()))
	}
}

func mustSchema(names ...string) *schema.Schema {
	return schema.FromNames(names...)
}
