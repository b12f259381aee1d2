package experiments

import (
	"strings"
	"testing"
)

// Small parameters keep the suite fast; the assertions are about the
// qualitative shapes the paper claims, not absolute numbers.

func TestE3ShapeKCurve(t *testing.T) {
	rep := E3(t.Context(), 7, 120)
	if len(rep.Rows) != 7 { // 6 k-values + naive
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// F1 at k=20 (dirtiest column) must be ≥ F1 at k=1.
	first := rep.Rows[0][3]
	last := rep.Rows[5][3]
	if last < first {
		t.Errorf("very-dirty F1 must not degrade with more duplicates: k1=%s k20=%s", first, last)
	}
}

func TestE4AllOverlapsScored(t *testing.T) {
	rep := E4(t.Context(), 7, 120)
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[2] == "err" {
			t.Errorf("overlap %s errored", row[0])
		}
	}
}

func TestE5PrecisionRisesWithThreshold(t *testing.T) {
	rep := E5(t.Context(), 7, 40, 3)
	if len(rep.Rows) < 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	lo := rep.Rows[0][1]               // precision at 0.5
	hi := rep.Rows[len(rep.Rows)-1][1] // precision at 0.95
	if hi < lo {
		t.Errorf("precision must rise with threshold: %s → %s", lo, hi)
	}
	// Recall must fall (or stay) with threshold.
	rLo := rep.Rows[0][2]
	rHi := rep.Rows[len(rep.Rows)-1][2]
	if rHi > rLo {
		t.Errorf("recall must fall with threshold: %s → %s", rLo, rHi)
	}
}

func TestE6FilterSoundness(t *testing.T) {
	rep := E6(t.Context(), 7, []int{60, 120})
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[4] != row[5] {
			t.Errorf("filter changed F1: on=%s off=%s", row[4], row[5])
		}
	}
}

func TestE7MatrixComplete(t *testing.T) {
	rep := E7()
	if len(rep.Rows) != 12 {
		t.Fatalf("functions = %d, want 12", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row) != 5 {
			t.Fatalf("row %v: want function + 4 patterns", row)
		}
		for _, cell := range row {
			if cell == "err" {
				t.Errorf("function %s errored", row[0])
			}
		}
	}
	// Spot-check the semantics the Fuse By paper documents.
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row[1:]
	}
	if byName["first"][2] != "NULL" {
		t.Errorf("first on null-pad = %q, want NULL (paper: even if null)", byName["first"][2])
	}
	if byName["coalesce"][2] != "x" {
		t.Errorf("coalesce on null-pad = %q, want x", byName["coalesce"][2])
	}
	if byName["group"][1] != "{x, y}" {
		t.Errorf("group on conflict = %q", byName["group"][1])
	}
	if byName["count"][3] != "0" {
		t.Errorf("count on all-null = %q", byName["count"][3])
	}
}

func TestE9AllScenariosRun(t *testing.T) {
	rep := E9(t.Context(), 7)
	if len(rep.Rows) != 3 {
		t.Fatalf("scenarios = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if strings.HasPrefix(row[2], "err") {
			t.Errorf("scenario %s failed: %v", row[0], row)
		}
		if row[0] == "cleansing" && row[5] != "0" {
			t.Errorf("single-source cleansing cannot have mixed lineage, got %s", row[5])
		}
	}
}

func TestE10CoversAllTwelveClasses(t *testing.T) {
	rep := E10(t.Context(), 7, 40)
	if len(rep.Rows) != 12 {
		t.Fatalf("classes = %d, want 12", len(rep.Rows))
	}
	bridged := 0
	for _, row := range rep.Rows {
		if row[5] == "yes" {
			bridged++
		}
		if row[2] == "err" {
			t.Errorf("class %s errored", row[0])
		}
	}
	// The synonym and opaque-name classes must always be bridged —
	// that is DUMAS's raison d'être.
	if rep.Rows[0][5] != "yes" {
		t.Error("synonyms not bridged")
	}
	if rep.Rows[10][5] != "yes" {
		t.Error("opaque names not bridged")
	}
	if bridged < 8 {
		t.Errorf("only %d/12 classes bridged", bridged)
	}
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if ByID(t.Context(), id, 7) == nil {
			t.Errorf("ByID(t.Context(), %q) = nil", id)
		}
		if ByID(t.Context(), strings.ToUpper(id), 7) == nil {
			t.Errorf("ByID must be case-insensitive for %q", id)
		}
	}
	if ByID(t.Context(), "e99", 7) != nil {
		t.Error("unknown id must return nil")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID: "EX", Title: "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  "a note",
	}
	s := rep.String()
	for _, want := range []string{"EX — demo", "a", "bb", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
