package thalia

import (
	"strings"
	"testing"

	"hummer/internal/dumas"
	"hummer/internal/eval"
)

func TestClassesComplete(t *testing.T) {
	cls := Classes()
	if len(cls) != 12 {
		t.Fatalf("classes = %d, want 12 (THALIA defines twelve)", len(cls))
	}
	for i, c := range cls {
		if c.ID != i+1 {
			t.Errorf("class %d has ID %d", i, c.ID)
		}
		if c.Name == "" || c.Description == "" {
			t.Errorf("class %d lacks name/description", c.ID)
		}
	}
}

func TestCanonicalDeterministicAndShaped(t *testing.T) {
	a := Canonical(5, 20)
	b := Canonical(5, 20)
	if a.Len() != 20 {
		t.Fatalf("rows = %d", a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Row(i).Equal(b.Row(i)) {
			t.Fatal("same seed must give identical catalogs")
		}
	}
	if got := a.Schema().Names(); len(got) != len(CanonicalAttributes) {
		t.Errorf("schema = %v", got)
	}
	// Codes look like DEPT###.
	code := a.Value(0, "Code").Text()
	if len(code) < 5 {
		t.Errorf("code = %q", code)
	}
}

func TestGenerateAllVariants(t *testing.T) {
	for _, c := range Classes() {
		v, err := Generate(c.ID, 7, 30)
		if err != nil {
			t.Fatalf("class %d: %v", c.ID, err)
		}
		if v.Rel.Len() != 30 {
			t.Errorf("class %d: rows = %d", c.ID, v.Rel.Len())
		}
		if v.Class.ID != c.ID {
			t.Errorf("class %d: got class %d", c.ID, v.Class.ID)
		}
		// Truth columns must exist in the variant schema.
		for canonAttr, varAttr := range v.Truth {
			if !v.Rel.Schema().Has(varAttr) {
				t.Errorf("class %d: truth %s→%s references missing column", c.ID, canonAttr, varAttr)
			}
		}
	}
}

func TestGenerateInvalidClass(t *testing.T) {
	if _, err := Generate(0, 1, 5); err == nil {
		t.Error("class 0 must error")
	}
	if _, err := Generate(13, 1, 5); err == nil {
		t.Error("class 13 must error")
	}
}

func TestSynonymsVariantRenamesEverything(t *testing.T) {
	v, err := Generate(1, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range CanonicalAttributes {
		if v.Rel.Schema().Has(a) {
			t.Errorf("synonym variant still has canonical name %q", a)
		}
	}
	if len(v.Truth) != len(CanonicalAttributes) {
		t.Errorf("synonyms truth covers %d attrs", len(v.Truth))
	}
}

func TestSimpleMappingDoublesCredits(t *testing.T) {
	canon := Canonical(3, 10)
	v, err := Generate(2, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := canon.Value(i, "Credits").Int() * 2
		if got := v.Rel.Value(i, "ECTS").Int(); got != want {
			t.Errorf("row %d ECTS = %d, want %d", i, got, want)
		}
	}
}

func TestComplexMappingCombinesCodeAndTitle(t *testing.T) {
	canon := Canonical(3, 5)
	v, err := Generate(4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := v.Rel.Value(0, "Course").Text()
	if !strings.Contains(got, canon.Value(0, "Code").Text()) ||
		!strings.Contains(got, canon.Value(0, "Title").Text()) {
		t.Errorf("Course = %q", got)
	}
	if _, ok := v.Truth["Code"]; ok {
		t.Error("complex mapping must not claim a 1:1 truth for Code")
	}
}

func TestLanguageVariantTranslatesTitles(t *testing.T) {
	canon := Canonical(3, 20)
	v, err := Generate(5, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < 20; i++ {
		if v.Rel.Value(i, "Titel").Text() != canon.Value(i, "Title").Text() {
			diff++
		}
	}
	if diff == 0 {
		t.Error("no title was translated")
	}
}

func TestStructureVariantSplitsTime(t *testing.T) {
	canon := Canonical(3, 5)
	v, err := Generate(9, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	day := v.Rel.Value(0, "Day").Text()
	hour := v.Rel.Value(0, "Hour").Text()
	if canon.Value(0, "Time").Text() != day+" "+hour {
		t.Errorf("time %q != %q + %q", canon.Value(0, "Time").Text(), day, hour)
	}
}

func TestCompositionVariantSplitsNames(t *testing.T) {
	canon := Canonical(3, 5)
	v, err := Generate(12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	full := canon.Value(0, "Instructor").Text()
	first := v.Rel.Value(0, "FirstName").Text()
	last := v.Rel.Value(0, "LastName").Text()
	if full != first+" "+last {
		t.Errorf("name %q != %q + %q", full, first, last)
	}
}

func TestOpaqueNamesKeepValues(t *testing.T) {
	canon := Canonical(3, 5)
	v, err := Generate(11, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Rel.Value(0, "col1"); !got.Equal(canon.Value(0, "Code")) {
		t.Errorf("col1 = %v, want Code value", got)
	}
}

// TestDUMASBridgesSynonyms is the E10 smoke test: the synonym class
// must be bridged perfectly by instance-based matching, since every
// value is identical.
func TestDUMASBridgesSynonyms(t *testing.T) {
	canon := Canonical(11, 40)
	v, err := Generate(1, 11, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dumas.MatchContext(t.Context(), canon, v.Rel, dumas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := eval.Matching(res.Correspondences, v.Truth)
	if m.Recall < 0.85 {
		t.Errorf("synonym recall = %.2f, want ≥ 0.85 (got %v)", m.Recall, res.Correspondences)
	}
	if m.Precision < 0.85 {
		t.Errorf("synonym precision = %.2f", m.Precision)
	}
}

// TestDUMASOpaqueNames: instance-based matching must be immune to
// meaningless attribute names (THALIA class 11) — exactly the DUMAS
// advantage over label-based matchers.
func TestDUMASBridgesOpaqueNames(t *testing.T) {
	canon := Canonical(13, 40)
	v, err := Generate(11, 13, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dumas.MatchContext(t.Context(), canon, v.Rel, dumas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := eval.Matching(res.Correspondences, v.Truth)
	if m.Recall < 0.85 || m.Precision < 0.85 {
		t.Errorf("opaque-name P/R = %.2f/%.2f, want ≥ 0.85", m.Precision, m.Recall)
	}
}
