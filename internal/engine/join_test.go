package engine

import (
	"math"
	"testing"

	"hummer/internal/relation"
	"hummer/internal/value"
)

// joinInputs builds a probe/build pair exercising every key shape the
// presized build table must handle: duplicate keys on both sides,
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

func joinAt(t *testing.T, workers int, left, right *relation.Relation) *relation.Relation {
	t.Helper()
	j, err := NewHashJoin(NewScan(left), NewScan(right), "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	j.SetParallelism(workers)
	return drain(t, j)
}

// TestHashJoinParallelByteIdentity is the determinism acceptance test
// for the batched parallel probe: at every worker count the join
// yields byte-identical output in the canonical order — left scan
// order crossed with right insertion order.
func TestHashJoinParallelByteIdentity(t *testing.T) {
	left, right := joinInputs()
	want := joinAt(t, 1, left, right)
	// The sequential baseline pins the canonical semantics first.
	// 1→R5, 2×{b,c}→{R1,R2} (4 rows), 3.0→R3, "x"→R4; NULL and NaN
	// keys drop on both sides.
	if want.Len() != 7 {
		t.Fatalf("sequential join rows = %d, want 7:\n%s", want.Len(), want)
	}
	if got := want.Value(0, "lv").Text() + want.Value(0, "rv").Text(); got != "aR5" {
		t.Fatalf("first joined row = %q, want left order preserved (aR5)", got)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		got := joinAt(t, workers, left, right)
		if got.String() != want.String() {
			t.Errorf("workers=%d output differs:\n%s\nvs sequential:\n%s", workers, got, want)
		}
	}
}

// TestHashJoinParallelManyRows crosses a batch boundary (the batched
// probe pulls workers*probeChunk rows per round) to prove canonical
// order holds across fills, not only inside one.
func TestHashJoinParallelManyRows(t *testing.T) {
	n := 3*probeChunk + 17
	lb := relation.NewBuilder("l", "k", "i")
	for i := 0; i < n; i++ {
		lb.Add(value.NewInt(int64(i%257)), value.NewInt(int64(i)))
	}
	left := lb.Build()
	rb := relation.NewBuilder("r", "k", "j")
	for i := 0; i < 257; i++ {
		rb.Add(value.NewInt(int64(i)), value.NewInt(int64(i*10)))
	}
	right := rb.Build()
	want := joinAt(t, 1, left, right)
	if want.Len() != n {
		t.Fatalf("rows = %d, want %d", want.Len(), n)
	}
	got := joinAt(t, 3, left, right)
	if got.String() != want.String() {
		t.Error("parallel output differs across batch boundaries")
	}
}

// TestHashJoinNullKeys pins the NULL contract of the presized build
// table: NULL keys are skipped on both sides — a NULL never joins,
// not even another NULL.
func TestHashJoinNullKeys(t *testing.T) {
	left := relation.NewBuilder("l", "k").Add(value.Null).Add(value.NewInt(1)).Build()
	right := relation.NewBuilder("r", "k").Add(value.Null).Add(value.NewInt(2)).Build()
	for _, workers := range []int{1, 4} {
		if got := joinAt(t, workers, left, right); got.Len() != 0 {
			t.Errorf("workers=%d: NULL keys joined: %d rows", workers, got.Len())
		}
	}
}

// TestHashJoinNaNKeys pins the NaN contract: a NaN key is not NULL,
// so it enters the presized build table, but value equality follows
// IEEE semantics (NaN != NaN) — so NaN keys hash-collide with each
// other and are then rejected by the .Equal verification, on the
// sequential and the parallel probe alike.
func TestHashJoinNaNKeys(t *testing.T) {
	nan := value.NewFloat(math.NaN())
	left := relation.NewBuilder("l", "k").Add(nan).Add(value.NewFloat(1)).Build()
	right := relation.NewBuilder("r", "k").Add(nan).Add(value.NewFloat(1)).Build()
	for _, workers := range []int{1, 4} {
		got := joinAt(t, workers, left, right)
		if got.Len() != 1 {
			t.Fatalf("workers=%d: rows = %d, want 1 (only 1.0 = 1.0; NaN must not join NaN)", workers, got.Len())
		}
		if math.IsNaN(got.Row(0)[0].Float()) {
			t.Errorf("workers=%d: NaN key joined", workers)
		}
	}
}

// TestHashJoinCrossNumericKeys pins that the presized table keeps the
// cross-numeric equality of the value model: int 3 and float 3.0 hash
// identically (via the float64 image) and are Equal, so they join.
func TestHashJoinCrossNumericKeys(t *testing.T) {
	left := relation.NewBuilder("l", "k").Add(value.NewInt(3)).Build()
	right := relation.NewBuilder("r", "k").Add(value.NewFloat(3)).Build()
	for _, workers := range []int{1, 4} {
		if got := joinAt(t, workers, left, right); got.Len() != 1 {
			t.Errorf("workers=%d: int 3 did not join float 3.0 (%d rows)", workers, got.Len())
		}
	}
}
