package engine

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"hummer/internal/expr"
	"hummer/internal/relation"
	"hummer/internal/value"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func abc() *relation.Relation {
	return relation.NewBuilder("t", "a", "b", "c").
		Add(value.NewInt(1), value.NewString("x"), value.NewFloat(1.5)).
		Add(value.NewInt(2), value.NewString("y"), value.NewFloat(2.5)).
		Build()
}

func items(exprs ...expr.Expr) []ProjectItem {
	out := make([]ProjectItem, len(exprs))
	for i, e := range exprs {
		out[i] = ProjectItem{Expr: e, As: string(rune('p' + i))}
	}
	return out
}

// TestProjectIdentityAliasesRows pins which projections pass input
// rows through (SELECT * and plain renames) and which build a row of
// their own (reordered, repeated, narrowed or computed items).
func TestProjectIdentityAliasesRows(t *testing.T) {
	col := expr.NewCol
	cases := []struct {
		name   string
		items  func() []ProjectItem
		shared bool
	}{
		{"star", func() []ProjectItem { return items(col("a"), col("b"), col("c")) }, true},
		{"renamed", func() []ProjectItem {
			return []ProjectItem{{Expr: col("a"), As: "x"}, {Expr: col("B"), As: "b"}, {Expr: col("c"), As: "z"}}
		}, true},
		{"reordered", func() []ProjectItem { return items(col("b"), col("a"), col("c")) }, false},
		{"repeated", func() []ProjectItem { return items(col("a"), col("a"), col("c")) }, false},
		{"narrowed", func() []ProjectItem { return items(col("a"), col("b")) }, false},
		{"computed", func() []ProjectItem {
			return items(col("a"), expr.NewArith(expr.Add, col("b"), expr.NewLit(value.NewString("!"))), col("c"))
		}, false},
	}
	rel := abc()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := drain(t, NewProject(NewScan(rel), tc.items()))
			if out.Len() != rel.Len() {
				t.Fatalf("rows = %d, want %d", out.Len(), rel.Len())
			}
			for i := range out.Len() {
				shared := &out.Row(i)[0] == &rel.Row(i)[0]
				if shared != tc.shared {
					t.Errorf("row %d shares the input row = %v, want %v", i, shared, tc.shared)
				}
			}
		})
	}
}

// TestMaterializeIdentityAllocsConstant pins that materializing an
// identity projection allocates a constant number of times, whatever
// the row count: rows pass through and the result's row slice is
// allocated once at the scan's size (13 allocations on linux/amd64,
// Go 1.24).
func TestMaterializeIdentityAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := func(n int) float64 {
		rel := randomRelation(n, 9)
		return testing.AllocsPerRun(20, func() {
			op := NewProjectCols(NewScan(rel), "id", "group", "val")
			if _, err := MaterializeContext(t.Context(), "out", op); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if large != small || large > 16 {
		t.Fatalf("allocs = %v at 100 rows, %v at 10 000 rows; want one small constant", small, large)
	}
}

// TestJoinRowsDoNotOverlap pins the three-index cut of slab rows:
// appending to one output row must not write into the next.
func TestJoinRowsDoNotOverlap(t *testing.T) {
	left, right := joinInputs()
	got := joinAt(t, left, right)
	next := got.Row(1).Clone()
	_ = append(got.Row(0), value.NewString("spill"))
	if !got.Row(1).Equal(next) {
		t.Fatalf("append to row 0 overwrote row 1: %v, was %v", got.Row(1), next)
	}
}

// TestWhereKeepsSlabsDense pins that WHERE hands the join rows it drops
// back to the join: the rows it keeps sit side by side in few slabs,
// so they do not pin the dropped rows' cells.
func TestWhereKeepsSlabsDense(t *testing.T) {
	const n = 60
	ab, bb := relation.NewBuilder("a", "x"), relation.NewBuilder("b", "y")
	for i, p := range rand.New(rand.NewSource(1)).Perm(n) {
		ab.Add(value.NewInt(int64(i)))
		bb.Add(value.NewInt(int64(p)))
	}
	c, err := NewCross(NewScan(ab.Build()), NewScan(bb.Build()))
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, NewFilter(c, expr.NewCmp(expr.EQ, expr.NewCol("x"), expr.NewCol("y"))))
	if out.Len() != n {
		t.Fatalf("rows = %d, want %d", out.Len(), n)
	}
	gaps := 0
	for i := 1; i < n; i++ {
		prev := out.Row(i - 1)
		if unsafe.Pointer(&out.Row(i)[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*unsafe.Sizeof(prev[0])) {
			gaps++
		}
	}
	// Slabs of 16, 16 and 32 rows hold the 60 kept rows.
	if gaps > 2 {
		t.Fatalf("%d gaps between %d kept rows, want at most 2 (one per new slab)", gaps, n)
	}
}

// TestHashJoinBuildRowBound pins the guard on the int32 chain links.
func TestHashJoinBuildRowBound(t *testing.T) {
	if err := checkBuildRows(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 build rows rejected: %v", err)
	}
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: no larger build side exists")
	}
	if err := checkBuildRows(math.MaxInt32 + 1); err == nil {
		t.Fatal("build side over MaxInt32 rows accepted")
	}
}
