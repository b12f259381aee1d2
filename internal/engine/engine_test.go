package engine

import (
	"testing"

	"hummer/internal/expr"
	"hummer/internal/relation"
	"hummer/internal/value"
)

func people() *relation.Relation {
	return relation.NewBuilder("people", "Name", "Age", "City").
		AddText("Alice", "30", "Berlin").
		AddText("Bob", "25", "Tokyo").
		AddText("Carol", "35", "Berlin").
		AddText("Dave", "", "Oslo").
		Build()
}

func drain(t *testing.T, op Operator) *relation.Relation {
	t.Helper()
	rel, err := MaterializeContext(t.Context(), "out", op)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return rel
}

func TestScan(t *testing.T) {
	out := drain(t, NewScan(people()))
	if out.Len() != 4 {
		t.Fatalf("scan yielded %d rows, want 4", out.Len())
	}
	if out.Value(0, "Name").Text() != "Alice" {
		t.Error("scan order broken")
	}
}

func TestFilter(t *testing.T) {
	pred := expr.NewCmp(expr.GT, expr.NewCol("Age"), expr.NewLit(value.NewInt(26)))
	out := drain(t, NewFilter(NewScan(people()), pred))
	if out.Len() != 2 {
		t.Fatalf("filter yielded %d rows, want 2 (NULL age drops)", out.Len())
	}
	for i := 0; i < out.Len(); i++ {
		if out.Value(i, "Age").Int() <= 26 {
			t.Errorf("row %d fails predicate", i)
		}
	}
}

func TestFilterBindError(t *testing.T) {
	pred := expr.NewCol("missing")
	_, err := MaterializeContext(t.Context(), "x", NewFilter(NewScan(people()), pred))
	if err == nil {
		t.Fatal("expected bind error")
	}
}

func TestProject(t *testing.T) {
	op := NewProject(NewScan(people()), []ProjectItem{
		{Expr: expr.NewCol("Name"), As: "who"},
		{Expr: expr.NewArith(expr.Add, expr.NewCol("Age"), expr.NewLit(value.NewInt(1))), As: "next_age"},
	})
	out := drain(t, op)
	if got := out.Schema().Names(); got[0] != "who" || got[1] != "next_age" {
		t.Fatalf("schema = %v", got)
	}
	if got := out.Value(0, "next_age"); !got.Equal(value.NewInt(31)) {
		t.Errorf("computed column = %v", got)
	}
	if !out.Value(3, "next_age").IsNull() {
		t.Error("NULL + 1 must be NULL")
	}
}

func TestProjectCols(t *testing.T) {
	out := drain(t, NewProjectCols(NewScan(people()), "City", "Name"))
	if got := out.Schema().Names(); got[0] != "City" || got[1] != "Name" {
		t.Fatalf("schema = %v", got)
	}
}

func TestRename(t *testing.T) {
	op, err := NewRename(NewScan(people()), map[string]string{"Name": "FullName"})
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	if !out.Schema().Has("FullName") || out.Schema().Has("Name") {
		t.Error("rename did not apply")
	}
	if _, err := NewRename(NewScan(people()), map[string]string{"nope": "x"}); err == nil {
		t.Error("renaming missing column must fail")
	}
}

func TestCross(t *testing.T) {
	a := relation.NewBuilder("a", "x").AddText("1").AddText("2").Build()
	b := relation.NewBuilder("b", "y").AddText("p").AddText("q").AddText("r").Build()
	op, err := NewCross(NewScan(a), NewScan(b))
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	if out.Len() != 6 {
		t.Fatalf("cross yielded %d rows, want 6", out.Len())
	}
}

func TestCrossRenamesDuplicateColumns(t *testing.T) {
	a := relation.NewBuilder("a", "x").AddText("1").Build()
	b := relation.NewBuilder("b", "x").AddText("2").Build()
	op, err := NewCross(NewScan(a), NewScan(b))
	if err != nil {
		t.Fatal(err)
	}
	names := op.Schema().Names()
	if names[0] != "x" || names[1] != "x_r" {
		t.Errorf("schema = %v", names)
	}
}

func TestHashJoin(t *testing.T) {
	orders := relation.NewBuilder("orders", "oid", "cust").
		AddText("1", "alice").
		AddText("2", "bob").
		AddText("3", "alice").
		AddText("4", "").
		Build()
	custs := relation.NewBuilder("custs", "name", "city").
		AddText("alice", "Berlin").
		AddText("bob", "Tokyo").
		AddText("carol", "Oslo").
		Build()
	op, err := NewHashJoin(NewScan(orders), NewScan(custs), "cust", "name")
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	if out.Len() != 3 {
		t.Fatalf("join yielded %d rows, want 3 (NULL never joins)", out.Len())
	}
	for i := 0; i < out.Len(); i++ {
		if out.Value(i, "cust").Text() != out.Value(i, "name").Text() {
			t.Errorf("row %d join key mismatch", i)
		}
	}
}

func TestHashJoinMissingColumns(t *testing.T) {
	a := relation.NewBuilder("a", "x").Build()
	b := relation.NewBuilder("b", "y").Build()
	if _, err := NewHashJoin(NewScan(a), NewScan(b), "zz", "y"); err == nil {
		t.Error("missing left column must fail")
	}
	if _, err := NewHashJoin(NewScan(a), NewScan(b), "x", "zz"); err == nil {
		t.Error("missing right column must fail")
	}
}

func TestUnion(t *testing.T) {
	a := relation.NewBuilder("a", "x").AddText("1").Build()
	b := relation.NewBuilder("b", "x").AddText("2").AddText("3").Build()
	op, err := NewUnion(NewScan(a), NewScan(b))
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	if out.Len() != 3 {
		t.Fatalf("union yielded %d, want 3", out.Len())
	}
	if _, err := NewUnion(); err == nil {
		t.Error("empty union must fail")
	}
	c := relation.NewBuilder("c", "x", "y").Build()
	if _, err := NewUnion(NewScan(a), NewScan(c)); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestOuterUnion(t *testing.T) {
	ee := relation.NewBuilder("EE", "Name", "Age").
		AddText("Alice", "21").Build()
	cs := relation.NewBuilder("CS", "Name", "Semester", "Age").
		AddText("Bob", "3", "24").Build()
	op, err := NewOuterUnion(NewScan(ee), NewScan(cs))
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	names := out.Schema().Names()
	want := []string{"Name", "Age", "Semester"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("schema = %v, want %v", names, want)
		}
	}
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2", out.Len())
	}
	if !out.Value(0, "Semester").IsNull() {
		t.Error("EE row must have NULL Semester")
	}
	if got := out.Value(1, "Semester"); !got.Equal(value.NewInt(3)) {
		t.Errorf("CS row semester = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	r := relation.NewBuilder("r", "x", "y").
		AddText("1", "a").
		AddText("1", "a").
		AddText("1", "b").
		AddText("2", "a").
		AddText("1", "a").
		Build()
	out := drain(t, NewDistinct(NewScan(r)))
	if out.Len() != 3 {
		t.Fatalf("distinct yielded %d rows, want 3", out.Len())
	}
}

func TestSort(t *testing.T) {
	op := NewSort(NewScan(people()), []SortKey{{Col: "Age", Desc: true}})
	out := drain(t, op)
	// Desc: 35, 30, 25, NULL(last under desc because NULL sorts smallest)
	if got := out.Value(0, "Name").Text(); got != "Carol" {
		t.Errorf("first = %q, want Carol", got)
	}
	if !out.Value(3, "Age").IsNull() {
		t.Error("NULL must sort last under DESC")
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	r := relation.NewBuilder("r", "g", "v").
		AddText("b", "2").
		AddText("a", "1").
		AddText("b", "1").
		AddText("a", "2").
		Build()
	op := NewSort(NewScan(r), []SortKey{{Col: "g"}, {Col: "v", Desc: true}})
	out := drain(t, op)
	want := [][2]string{{"a", "2"}, {"a", "1"}, {"b", "2"}, {"b", "1"}}
	for i, w := range want {
		if out.Value(i, "g").Text() != w[0] || out.Value(i, "v").Text() != w[1] {
			t.Errorf("row %d = (%s,%s), want %v", i, out.Value(i, "g").Text(), out.Value(i, "v").Text(), w)
		}
	}
}

func TestSortMissingColumn(t *testing.T) {
	op := NewSort(NewScan(people()), []SortKey{{Col: "nope"}})
	if _, err := MaterializeContext(t.Context(), "x", op); err == nil {
		t.Error("sorting on missing column must fail at Open")
	}
}

func TestLimit(t *testing.T) {
	out := drain(t, NewLimit(NewScan(people()), 2))
	if out.Len() != 2 {
		t.Fatalf("limit yielded %d rows", out.Len())
	}
	out = drain(t, NewLimit(NewScan(people()), 0))
	if out.Len() != 0 {
		t.Fatalf("limit 0 yielded %d rows", out.Len())
	}
	out = drain(t, NewLimit(NewScan(people()), 100))
	if out.Len() != 4 {
		t.Fatalf("limit beyond input yielded %d rows", out.Len())
	}
}

func TestGroupAggregates(t *testing.T) {
	mk := func(name string) AggFactory {
		f, ok := LookupAgg(name)
		if !ok {
			t.Fatalf("no aggregate %q", name)
		}
		return f
	}
	op, err := NewGroup(NewScan(people()), []string{"City"}, []AggSpec{
		{Factory: mk("count"), Col: "*", As: "n"},
		{Factory: mk("sum"), Col: "Age", As: "total"},
		{Factory: mk("min"), Col: "Age", As: "youngest"},
		{Factory: mk("max"), Col: "Age", As: "oldest"},
		{Factory: mk("avg"), Col: "Age", As: "mean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	if out.Len() != 3 {
		t.Fatalf("groups = %d, want 3", out.Len())
	}
	// Groups appear in first-appearance order: Berlin, Tokyo, Oslo.
	if out.Value(0, "City").Text() != "Berlin" {
		t.Fatalf("first group = %v", out.Value(0, "City"))
	}
	if got := out.Value(0, "n"); !got.Equal(value.NewInt(2)) {
		t.Errorf("Berlin count = %v", got)
	}
	if got := out.Value(0, "total"); !got.Equal(value.NewInt(65)) {
		t.Errorf("Berlin sum = %v", got)
	}
	if got := out.Value(0, "mean"); !got.Equal(value.NewFloat(32.5)) {
		t.Errorf("Berlin avg = %v", got)
	}
	// Oslo: Dave has NULL age — aggregates over no values.
	if got := out.Value(2, "n"); !got.Equal(value.NewInt(1)) {
		t.Errorf("Oslo count(*) = %v, want 1", got)
	}
	if !out.Value(2, "total").IsNull() {
		t.Error("sum of only NULLs must be NULL")
	}
	if !out.Value(2, "youngest").IsNull() || !out.Value(2, "oldest").IsNull() {
		t.Error("min/max of only NULLs must be NULL")
	}
}

func TestGroupNoKeysEmptyInput(t *testing.T) {
	empty := relation.NewBuilder("e", "v").Build()
	cnt, _ := LookupAgg("count")
	op, err := NewGroup(NewScan(empty), nil, []AggSpec{{Factory: cnt, Col: "*", As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	if out.Len() != 1 {
		t.Fatalf("global aggregate over empty input must emit 1 row, got %d", out.Len())
	}
	if got := out.Value(0, "n"); !got.Equal(value.NewInt(0)) {
		t.Errorf("count = %v, want 0", got)
	}
}

func TestGroupMissingColumns(t *testing.T) {
	cnt, _ := LookupAgg("count")
	if _, err := NewGroup(NewScan(people()), []string{"nope"}, nil); err == nil {
		t.Error("missing key column must fail")
	}
	if _, err := NewGroup(NewScan(people()), nil, []AggSpec{{Factory: cnt, Col: "nope", As: "n"}}); err == nil {
		t.Error("missing aggregate column must fail")
	}
}

func TestSumMixedIntFloat(t *testing.T) {
	r := relation.NewBuilder("r", "v").AddText("1").AddText("2.5").Build()
	sum, _ := LookupAgg("sum")
	op, err := NewGroup(NewScan(r), nil, []AggSpec{{Factory: sum, Col: "v", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, op)
	if got := out.Value(0, "s"); !got.Equal(value.NewFloat(3.5)) {
		t.Errorf("sum = %v, want 3.5", got)
	}
}

func TestComposition(t *testing.T) {
	// SELECT City, count(*) FROM people WHERE Age IS NOT NULL GROUP BY City ORDER BY City
	cnt, _ := LookupAgg("count")
	filtered := NewFilter(NewScan(people()), expr.NewIsNull(expr.NewCol("Age"), true))
	grouped, err := NewGroup(filtered, []string{"City"}, []AggSpec{{Factory: cnt, Col: "*", As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, NewSort(grouped, []SortKey{{Col: "City"}}))
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (Oslo dropped)", out.Len())
	}
	if out.Value(0, "City").Text() != "Berlin" || !out.Value(0, "n").Equal(value.NewInt(2)) {
		t.Errorf("row 0 = %v/%v", out.Value(0, "City"), out.Value(0, "n"))
	}
}
