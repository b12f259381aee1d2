package dumas

import (
	"testing"

	"hummer/internal/relation"
)

// students builds two student tables with different schemas, attribute
// orders and labels, sharing some real-world entities — the paper's
// EE/CS student example.
func students() (*relation.Relation, *relation.Relation) {
	ee := relation.NewBuilder("EE_Student", "Name", "Age", "City").
		AddText("Jonathan Smith", "22", "Berlin").
		AddText("Maria Garcia", "24", "Hamburg").
		AddText("Wei Chen", "21", "Munich").
		AddText("Aisha Khan", "23", "Cologne").
		AddText("Peter Schulz", "25", "Dresden").
		Build()
	cs := relation.NewBuilder("CS_Students", "FullName", "Semester", "Years", "Town").
		AddText("Jonathan Smith", "4", "22", "Berlin").
		AddText("Wei Chen", "2", "21", "Munich").
		AddText("Aisha Khan", "6", "23", "Cologne").
		AddText("Lena Fischer", "1", "20", "Stuttgart").
		Build()
	return ee, cs
}

func corrMap(r *Result) map[string]string {
	m := map[string]string{}
	for _, c := range r.Correspondences {
		m[c.LeftCol] = c.RightCol
	}
	return m
}

func TestMatchStudents(t *testing.T) {
	ee, cs := students()
	res, err := MatchContext(t.Context(), ee, cs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Duplicates) == 0 {
		t.Fatal("no duplicates discovered")
	}
	m := corrMap(res)
	if m["Name"] != "FullName" {
		t.Errorf("Name matched %q, want FullName (got %v)", m["Name"], m)
	}
	if m["Age"] != "Years" {
		t.Errorf("Age matched %q, want Years", m["Age"])
	}
	if m["City"] != "Town" {
		t.Errorf("City matched %q, want Town", m["City"])
	}
}

func TestMatchIsOneToOne(t *testing.T) {
	ee, cs := students()
	res, err := MatchContext(t.Context(), ee, cs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	seenL, seenR := map[string]bool{}, map[string]bool{}
	for _, c := range res.Correspondences {
		if seenL[c.LeftCol] || seenR[c.RightCol] {
			t.Fatalf("correspondences are not 1:1: %v", res.Correspondences)
		}
		seenL[c.LeftCol] = true
		seenR[c.RightCol] = true
	}
}

func TestMatchEmptyRelationErrors(t *testing.T) {
	ee, _ := students()
	empty := relation.NewBuilder("empty", "a", "b").Build()
	if _, err := MatchContext(t.Context(), ee, empty, Config{}); err == nil {
		t.Error("matching against empty relation must fail")
	}
	if _, err := MatchContext(t.Context(), empty, ee, Config{}); err == nil {
		t.Error("matching from empty relation must fail")
	}
}

func TestMatchNoDuplicatesGivesNoCorrespondences(t *testing.T) {
	a := relation.NewBuilder("a", "x", "y").
		AddText("alpha", "beta").
		Build()
	b := relation.NewBuilder("b", "p", "q").
		AddText("gamma", "delta").
		Build()
	res, err := MatchContext(t.Context(), a, b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Correspondences) != 0 {
		t.Errorf("disjoint relations produced correspondences: %v", res.Correspondences)
	}
}

func TestFindDuplicatesRanksTrueDuplicateFirst(t *testing.T) {
	ee, cs := students()
	dups, _, _ := findDuplicates(t.Context(), ee, cs, Config{MaxDuplicates: 3, MinTupleSim: 0.1})
	if len(dups) == 0 {
		t.Fatal("no duplicates")
	}
	// The top pair must be a genuine shared student.
	top := dups[0]
	l := ee.Value(top.LeftRow, "Name").Text()
	r := cs.Value(top.RightRow, "FullName").Text()
	if l != r {
		t.Errorf("top duplicate pair is %q vs %q — not a true duplicate", l, r)
	}
}

func TestFindDuplicatesOneToOne(t *testing.T) {
	ee, cs := students()
	dups, _, _ := findDuplicates(t.Context(), ee, cs, Config{MaxDuplicates: 10})
	seenL, seenR := map[int]bool{}, map[int]bool{}
	for _, d := range dups {
		if seenL[d.LeftRow] || seenR[d.RightRow] {
			t.Fatal("a tuple participates in two duplicate pairs")
		}
		seenL[d.LeftRow] = true
		seenR[d.RightRow] = true
	}
}

func TestFindDuplicatesRespectsLimits(t *testing.T) {
	ee, cs := students()
	if got, _, _ := findDuplicates(t.Context(), ee, cs, Config{MaxDuplicates: 2}); len(got) > 2 {
		t.Errorf("maxDups=2 returned %d pairs", len(got))
	}
	if got, _, _ := findDuplicates(t.Context(), ee, cs, Config{MaxDuplicates: 10, MinTupleSim: 0.999}); len(got) != 0 {
		t.Errorf("minSim≈1 returned %d pairs, want 0", len(got))
	}
}

func TestMatrixShapeAndBounds(t *testing.T) {
	ee, cs := students()
	res, err := MatchContext(t.Context(), ee, cs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matrix) != ee.Schema().Len() {
		t.Fatalf("matrix rows = %d, want %d", len(res.Matrix), ee.Schema().Len())
	}
	for _, row := range res.Matrix {
		if len(row) != cs.Schema().Len() {
			t.Fatalf("matrix cols = %d, want %d", len(row), cs.Schema().Len())
		}
		for _, v := range row {
			if v < 0 || v > 1.0000001 {
				t.Errorf("matrix cell %g out of [0,1]", v)
			}
		}
	}
}

func TestThresholdPrunes(t *testing.T) {
	ee, cs := students()
	loose, err := MatchContext(t.Context(), ee, cs, Config{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := MatchContext(t.Context(), ee, cs, Config{Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Correspondences) > len(loose.Correspondences) {
		t.Error("higher threshold cannot produce more correspondences")
	}
	for _, c := range strict.Correspondences {
		if c.Score < 0.99 {
			t.Errorf("correspondence %v survived threshold 0.99", c)
		}
	}
}

func TestMatchWithTyposInDuplicates(t *testing.T) {
	// Duplicates with typos: SoftTFIDF should still align the fields.
	a := relation.NewBuilder("a", "Name", "City").
		AddText("Jonathan Smith", "Berlin").
		AddText("Maria Garcia", "Hamburg").
		AddText("Peter Schulz", "Dresden").
		Build()
	b := relation.NewBuilder("b", "Ort", "Person").
		AddText("Berlin", "Jonathon Smith"). // typo in first name
		AddText("Hamburg", "Maria Garcia").
		AddText("Stuttgart", "Lena Fischer").
		Build()
	res, err := MatchContext(t.Context(), a, b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := corrMap(res)
	if m["Name"] != "Person" || m["City"] != "Ort" {
		t.Errorf("typo'd duplicates gave %v", m)
	}
}

func TestNaiveMatchWorksOnDistinctVocabulary(t *testing.T) {
	ee, cs := students()
	res := NaiveMatch(ee, cs, 0.1)
	m := corrMap(res)
	if m["Name"] != "FullName" {
		t.Errorf("naive: Name matched %q", m["Name"])
	}
	if m["City"] != "Town" {
		t.Errorf("naive: City matched %q", m["City"])
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := Default()
	if c != d {
		t.Errorf("withDefaults() = %+v, want %+v", c, d)
	}
	custom := Config{MaxDuplicates: 3, MinTupleSim: 0.5, Threshold: 0.7}.withDefaults()
	if custom.MaxDuplicates != 3 || custom.MinTupleSim != 0.5 || custom.Threshold != 0.7 {
		t.Error("withDefaults must not override explicit settings")
	}
}

func TestMatchNumericColumns(t *testing.T) {
	// Numeric columns align by numeric distance even when the string
	// forms differ slightly.
	a := relation.NewBuilder("a", "Product", "Price").
		AddText("Beethoven Symphony 9", "12.99").
		AddText("Mozart Requiem KV626", "9.50").
		AddText("Bach Goldberg Variations", "14.00").
		Build()
	b := relation.NewBuilder("b", "Cost", "Title").
		AddText("12.99", "Beethoven Symphony 9").
		AddText("9.50", "Mozart Requiem KV626").
		AddText("7.77", "Verdi Aida Highlights").
		Build()
	res, err := MatchContext(t.Context(), a, b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := corrMap(res)
	if m["Product"] != "Title" {
		t.Errorf("Product matched %q, want Title", m["Product"])
	}
	if m["Price"] != "Cost" {
		t.Errorf("Price matched %q, want Cost", m["Price"])
	}
}
