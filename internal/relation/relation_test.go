package relation

import (
	"strings"
	"testing"
	"testing/quick"

	"hummer/internal/schema"
	"hummer/internal/value"
)

func sample() *Relation {
	return NewBuilder("people", "Name", "Age").
		AddText("Alice", "30").
		AddText("Bob", "25").
		AddText("Carol", "").
		Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	r := sample()
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if got := r.Value(0, "Name"); !got.Equal(value.NewString("Alice")) {
		t.Errorf("Value(0,Name) = %v", got)
	}
	if got := r.Value(1, "age"); !got.Equal(value.NewInt(25)) {
		t.Errorf("Value(1,age) = %v (lookup must be case-insensitive)", got)
	}
	if !r.Value(2, "Age").IsNull() {
		t.Error("empty cell must parse to NULL")
	}
}

func TestAppendArityMismatch(t *testing.T) {
	r := New("t", schema.FromNames("a", "b"))
	if err := r.Append(Row{value.NewInt(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if err := r.AppendText("1", "2", "3"); err == nil {
		t.Error("text arity mismatch must error")
	}
	if err := r.AppendText("1", "2"); err != nil {
		t.Errorf("valid append failed: %v", err)
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("t", schema.FromNames("a")).MustAppend(Row{})
}

func TestRowEqualAndHash(t *testing.T) {
	a := Row{value.NewInt(1), value.NewString("x")}
	b := Row{value.NewFloat(1.0), value.NewString("x")}
	c := Row{value.NewInt(2), value.NewString("x")}
	if !a.Equal(b) {
		t.Error("rows with cross-numeric equal cells must be equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal rows must hash identically")
	}
	if a.Equal(c) {
		t.Error("different rows must not be equal")
	}
	if a.Equal(Row{value.NewInt(1)}) {
		t.Error("different arity rows must not be equal")
	}
}

func TestRowHashQuick(t *testing.T) {
	err := quick.Check(func(a int64, s string) bool {
		r1 := Row{value.NewInt(a), value.NewString(s)}
		r2 := Row{value.NewInt(a), value.NewString(s)}
		return r1.Hash() == r2.Hash()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := sample()
	c := r.Clone()
	c.Rows()[0][0] = value.NewString("Mallory")
	if r.Value(0, "Name").Text() == "Mallory" {
		t.Error("Clone must not share row storage")
	}
}

func TestRowWith(t *testing.T) {
	r := Row{value.NewString("Alice"), value.NewInt(30)}
	w := r.With(value.NewString("s1"))
	if !w.Equal(Row{value.NewString("Alice"), value.NewInt(30), value.NewString("s1")}) {
		t.Fatalf("With = %v", w)
	}
	w[0] = value.NewString("Mallory")
	if r[0].Text() != "Alice" {
		t.Error("With must not share row storage")
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = r.With(value.Null) }); allocs != 1 {
		t.Errorf("With allocates %v times, want 1", allocs)
	}
}

func TestWithSchema(t *testing.T) {
	r := sample()
	s2 := schema.FromNames("FullName", "Years")
	v, err := r.WithSchema(s2)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Value(0, "FullName"); got.Text() != "Alice" {
		t.Errorf("renamed view Value = %v", got)
	}
	if _, err := r.WithSchema(schema.FromNames("only")); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestSort(t *testing.T) {
	r := sample()
	r.Sort("Age")
	// NULL sorts first, then 25, then 30.
	if !r.Value(0, "Age").IsNull() {
		t.Errorf("row 0 age = %v, want NULL first", r.Value(0, "Age"))
	}
	if got := r.Value(1, "Name").Text(); got != "Bob" {
		t.Errorf("row 1 = %q, want Bob", got)
	}
	if got := r.Value(2, "Name").Text(); got != "Alice" {
		t.Errorf("row 2 = %q, want Alice", got)
	}
}

func TestSortMultiColumnStable(t *testing.T) {
	r := NewBuilder("t", "g", "v").
		AddText("b", "1").
		AddText("a", "2").
		AddText("a", "1").
		AddText("b", "0").
		Build()
	r.Sort("g", "v")
	want := [][2]string{{"a", "1"}, {"a", "2"}, {"b", "0"}, {"b", "1"}}
	for i, w := range want {
		if r.Value(i, "g").Text() != w[0] || r.Value(i, "v").Text() != w[1] {
			t.Errorf("row %d = (%s,%s), want (%s,%s)", i,
				r.Value(i, "g").Text(), r.Value(i, "v").Text(), w[0], w[1])
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "people [3 rows]") {
		t.Errorf("missing header in:\n%s", s)
	}
	if !strings.Contains(s, "Alice") || !strings.Contains(s, "NULL") {
		t.Errorf("missing cells in:\n%s", s)
	}
}

func TestBuilderPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from Build after bad Add")
		}
	}()
	NewBuilder("t", "a", "b").AddText("only-one").Build()
}

func TestTypedBuilder(t *testing.T) {
	s := schema.New(
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
	)
	r := Typed("t", s).Add(value.NewInt(1), value.NewString("x")).Build()
	if r.Len() != 1 || r.Schema() != s {
		t.Error("typed builder failed")
	}
}

func TestNewSizedStartsEmptyAndChecksArity(t *testing.T) {
	r := NewSized("t", schema.FromNames("a", "b"), 4)
	if r.Len() != 0 || r.Name() != "t" {
		t.Fatalf("NewSized: len %d, name %q; want an empty relation t", r.Len(), r.Name())
	}
	if err := r.Append(Row{value.NewInt(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
	for i := range 6 {
		if err := r.Append(Row{value.NewInt(int64(i)), value.Null}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 6 || r.Row(5)[0].Int() != 5 {
		t.Errorf("appends past the size hint: len %d, last %v", r.Len(), r.Row(r.Len()-1))
	}
}
