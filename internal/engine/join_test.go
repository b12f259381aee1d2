package engine

import (
	"math"
	"testing"

	"hummer/internal/relation"
	"hummer/internal/value"
)

// joinInputs builds a probe/build pair exercising every key shape the
// chained build table must handle: duplicate keys on both sides,
// NULL keys on both sides, cross-numeric keys (int 3 joins float
// 3.0), NaN keys, and keys that collide only after .Equal
// verification.
func joinInputs() (left, right *relation.Relation) {
	left = relation.NewBuilder("l", "k", "lv").
		Add(value.NewInt(1), value.NewString("a")).
		Add(value.NewInt(2), value.NewString("b")).
		Add(value.NewInt(2), value.NewString("c")).
		Add(value.Null, value.NewString("null-probe")).
		Add(value.NewFloat(3), value.NewString("d")).
		Add(value.NewFloat(math.NaN()), value.NewString("nan-probe")).
		Add(value.NewString("x"), value.NewString("e")).
		Add(value.NewInt(99), value.NewString("f")).
		Build()
	right = relation.NewBuilder("r", "k", "rv").
		Add(value.NewInt(2), value.NewString("R1")).
		Add(value.NewInt(2), value.NewString("R2")).
		Add(value.NewInt(3), value.NewString("R3")).
		Add(value.Null, value.NewString("null-build")).
		Add(value.NewFloat(math.NaN()), value.NewString("nan-build")).
		Add(value.NewString("x"), value.NewString("R4")).
		Add(value.NewInt(1), value.NewString("R5")).
		Build()
	return left, right
}

func joinAt(t *testing.T, left, right *relation.Relation) *relation.Relation {
	t.Helper()
	j, err := NewHashJoin(NewScan(left), NewScan(right), "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, j)
}

// TestHashJoinCanonicalOrder pins the join's output order: left scan
// order crossed with right insertion order.
func TestHashJoinCanonicalOrder(t *testing.T) {
	left, right := joinInputs()
	got := joinAt(t, left, right)
	// 1→R5, 2×{b,c}→{R1,R2} (4 rows), 3.0→R3, "x"→R4; NULL and NaN
	// keys drop on both sides.
	if got.Len() != 7 {
		t.Fatalf("join rows = %d, want 7:\n%s", got.Len(), got)
	}
	if first := got.Value(0, "lv").Text() + got.Value(0, "rv").Text(); first != "aR5" {
		t.Fatalf("first joined row = %q, want left order preserved (aR5)", first)
	}
}

// TestHashJoinNullKeys pins the NULL contract of the chained build
// table: NULL keys are skipped on both sides — a NULL never joins,
// not even another NULL.
func TestHashJoinNullKeys(t *testing.T) {
	left := relation.NewBuilder("l", "k").Add(value.Null).Add(value.NewInt(1)).Build()
	right := relation.NewBuilder("r", "k").Add(value.Null).Add(value.NewInt(2)).Build()
	if got := joinAt(t, left, right); got.Len() != 0 {
		t.Errorf("NULL keys joined: %d rows", got.Len())
	}
}

// TestHashJoinNaNKeys pins the NaN contract: a NaN key is not NULL,
// so it enters the chained build table, but value equality follows
// IEEE semantics (NaN != NaN) — so NaN keys hash-collide with each
// other and are then rejected by the .Equal verification.
func TestHashJoinNaNKeys(t *testing.T) {
	nan := value.NewFloat(math.NaN())
	left := relation.NewBuilder("l", "k").Add(nan).Add(value.NewFloat(1)).Build()
	right := relation.NewBuilder("r", "k").Add(nan).Add(value.NewFloat(1)).Build()
	got := joinAt(t, left, right)
	if got.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (only 1.0 = 1.0; NaN must not join NaN)", got.Len())
	}
	if math.IsNaN(got.Row(0)[0].Float()) {
		t.Error("NaN key joined")
	}
}

// TestHashJoinCrossNumericKeys pins that the chained table keeps the
// cross-numeric equality of the value model: int 3 and float 3.0 hash
// identically (via the float64 image) and are Equal, so they join.
func TestHashJoinCrossNumericKeys(t *testing.T) {
	left := relation.NewBuilder("l", "k").Add(value.NewInt(3)).Build()
	right := relation.NewBuilder("r", "k").Add(value.NewFloat(3)).Build()
	if got := joinAt(t, left, right); got.Len() != 1 {
		t.Errorf("int 3 did not join float 3.0 (%d rows)", got.Len())
	}
}
