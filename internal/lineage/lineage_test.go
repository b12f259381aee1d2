package lineage

import (
	"reflect"
	"testing"
)

func TestZeroSetEmpty(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.IsMixed() {
		t.Error("zero Set must be empty and unmixed")
	}
	if s.String() != "" {
		t.Errorf("String = %q", s.String())
	}
}

func TestFrom(t *testing.T) {
	s := From("cd_a", 3)
	if s.IsEmpty() || s.IsMixed() {
		t.Error("singleton must be non-empty and unmixed")
	}
	if got := s.Origins(); len(got) != 1 || got[0] != (Origin{Source: "cd_a", Row: 3}) {
		t.Errorf("Origins = %v", got)
	}
}

func TestMergeDeduplicates(t *testing.T) {
	a := From("s1", 0)
	b := From("s1", 0)
	c := From("s2", 5)
	m := Merge(a, b, c)
	if len(m.Origins()) != 2 {
		t.Fatalf("Origins = %v, want 2 after dedup", m.Origins())
	}
	if !m.IsMixed() {
		t.Error("two sources must be mixed")
	}
	if got := m.Sources(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Errorf("Sources = %v", got)
	}
	if m.String() != "s1,s2" {
		t.Errorf("String = %q", m.String())
	}
}

func TestMergeDeterministicOrder(t *testing.T) {
	m1 := Merge(From("b", 1), From("a", 2))
	m2 := Merge(From("a", 2), From("b", 1))
	if !reflect.DeepEqual(m1.Origins(), m2.Origins()) {
		t.Error("merge order must not affect result ordering")
	}
}

func TestSameSourceMultipleRowsNotMixed(t *testing.T) {
	m := Merge(From("s", 0), From("s", 1))
	if m.IsMixed() {
		t.Error("multiple rows of one source are not 'mixed'")
	}
	if len(m.Origins()) != 2 {
		t.Error("distinct rows must both survive")
	}
}

func TestOriginsReturnsCopy(t *testing.T) {
	m := From("s", 0)
	m.Origins()[0] = Origin{Source: "hacked", Row: 9}
	if m.Origins()[0].Source != "s" {
		t.Error("Origins must return a defensive copy")
	}
}

func TestLenAtMatchOrigins(t *testing.T) {
	m := Merge(From("b", 2), From("a", 7), From("a", 1))
	origins := m.Origins()
	if m.Len() != len(origins) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(origins))
	}
	for i, o := range origins {
		if m.At(i) != o {
			t.Errorf("At(%d) = %v, want %v", i, m.At(i), o)
		}
	}
	if (Set{}).Len() != 0 {
		t.Error("the empty set has origins")
	}
}
